// Command escaped runs one orchestration layer as a daemon exposing the
// Unify interface over HTTP — the process form of the recursive control
// hierarchy. Layers in separate processes (or machines) stack by pointing a
// parent's -child flags at the children's -listen addresses.
//
// Roles:
//
//	escaped -role leaf -id dom1 -substrate topo.json -listen :8181
//	    Run a leaf domain: a local orchestrator over the substrate described
//	    by the NFFG JSON file (or a generated line topology with -nodes).
//
//	escaped -role orchestrator -id mdo -child dom1=http://h1:8181 \
//	        -child dom2=http://h2:8181 -listen :8080
//	    Run a resource orchestrator over remote children.
//
//	escaped -replica-of http://writer:8080 -id replica1 -listen :8081
//	    Run a stateless read replica: subscribe to the writer's watch stream
//	    and serve View/services/capabilities/stats locally (byte-identical
//	    views, identical ETags at equal generations). Writes are refused with
//	    503 + a Location hint at the writer, or proxied with -proxy-writes.
//	    N replicas behind one writer scale the read plane horizontally.
//
// The served API is documented in internal/api.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/api"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/fleet"
	"github.com/unify-repro/escape/internal/journal"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/obs"
	"github.com/unify-repro/escape/internal/unify"
)

type childFlags []string

func (c *childFlags) String() string { return strings.Join(*c, ",") }
func (c *childFlags) Set(v string) error {
	*c = append(*c, v)
	return nil
}

// tenantWeightFlags accumulates repeatable -tenant-weight name=N flags.
type tenantWeightFlags struct {
	specs   []string
	weights map[string]int
}

func (t *tenantWeightFlags) String() string { return strings.Join(t.specs, ",") }
func (t *tenantWeightFlags) Set(v string) error {
	name, raw, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=N, got %q", v)
	}
	w, err := strconv.Atoi(raw)
	if err != nil || w < 1 {
		return fmt.Errorf("weight of %s must be a positive integer, got %q", name, raw)
	}
	if t.weights == nil {
		t.weights = map[string]int{}
	}
	t.weights[name] = w
	t.specs = append(t.specs, v)
	return nil
}

func main() {
	log.SetPrefix("escaped: ")
	log.SetFlags(0)

	var (
		role      = flag.String("role", "leaf", "layer role: leaf | orchestrator")
		id        = flag.String("id", "", "layer ID (default: role)")
		listen    = flag.String("listen", "127.0.0.1:8181", "HTTP listen address")
		substrate = flag.String("substrate", "", "leaf: NFFG JSON file describing the internal topology")
		nodes     = flag.Int("nodes", 3, "leaf: generated line-topology size when no -substrate given")
		view      = flag.String("view", "single", "exported view: single | domain | transparent")
		types     = flag.String("types", "firewall,dpi,nat,cache,compress,encrypt,lb,monitor", "leaf: supported NF types (generated substrate)")
		admit     = flag.Bool("admission", true, "front the layer with a batching admission queue (enables the async jobs API)")
		maxBatch  = flag.Int("batch-max", 32, "admission: max requests per coalesced batch")
		shard     = flag.String("shard", "domain", "orchestrator: DoV sharding: domain (one shard per child, disjoint installs commit concurrently) | single (one global generation counter)")

		defWeight  = flag.Int("tenant-default-weight", 1, "admission: DWRR weight of tenants without a -tenant-weight entry")
		tenantCap  = flag.Int("tenant-queue-cap", 0, "admission: per-tenant queued-job bound (0 = the global queue cap)")
		tenantInFl = flag.Int("tenant-inflight", 0, "admission: per-tenant dispatched-job bound (0 = unlimited)")
		ageAfter   = flag.Duration("age-after", 0, "admission: starvation-free aging interval (0 = 30s default, negative disables)")
		fifo       = flag.Bool("fifo", false, "admission: disable weighted-fair scheduling (strict arrival order; baseline only)")

		tracing   = flag.Bool("tracing", true, "admission: record per-job span trees, served at GET /unify/trace/{id}")
		pprofFlag = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")

		fleetOn       = flag.Bool("fleet", true, "orchestrator: run the domain fleet controller — health probes, hot attach/detach, automatic failover re-embedding (GET /unify/fleet, POST /unify/fleet/{domain}/drain)")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "fleet: health-probe period per domain")
		probeTimeout  = flag.Duration("probe-timeout", time.Second, "fleet: timeout of one probe attempt")
		degradeAfter  = flag.Int("degrade-after", 1, "fleet: consecutive failed probe rounds before a domain is marked degraded")
		evictAfter    = flag.Int("evict-after", 3, "fleet: consecutive failed probe rounds before a domain is evicted and its services re-embedded")
		maxMigrations = flag.Int("max-migrations", 2, "fleet: concurrent re-embeddings during one eviction")

		replicaOf   = flag.String("replica-of", "", "run as a stateless read replica of the writer at this URL (ignores -role); serves reads locally from the writer's watch stream")
		proxyWrites = flag.Bool("proxy-writes", false, "replica: forward installs/removes to the writer instead of refusing them with 503 + Location")
		watchWindow = flag.Duration("watch-window", 30*time.Second, "replica: long-poll window asked of the writer's watch stream")

		dataDir   = flag.String("data-dir", "", "orchestrator: durable state directory — write-ahead journal + checkpoints; on restart the process recovers committed mappings and re-enqueues unfinished jobs")
		ckptEvery = flag.Duration("checkpoint-interval", 10*time.Second, "journal: cadence of sealed-snapshot checkpoints (with -data-dir)")
		jstrict   = flag.Bool("journal-strict", false, "journal: fsync every record instead of the periodic background sync (survives machine crashes, slower commits)")
	)
	var children childFlags
	flag.Var(&children, "child", "orchestrator: child layer as name=url (repeatable)")
	var tenantWeights tenantWeightFlags
	flag.Var(&tenantWeights, "tenant-weight", "admission: tenant DWRR weight as name=N (repeatable; unlisted tenants get -tenant-default-weight)")
	flag.Parse()

	if *replicaOf != "" {
		if *id == "" {
			*id = "replica"
		}
		runReplica(*id, *listen, *replicaOf, *proxyWrites, *watchWindow, *pprofFlag)
		return
	}
	if *id == "" {
		*id = *role
	}

	// Durability: recover whatever a previous incarnation journaled BEFORE
	// constructing the layer, so the orchestrator is born with its journal
	// hook and the recovered state loads in one step.
	var (
		store    *journal.Store
		recState *journal.RecoveredState
		recInfo  *journal.Info
	)
	if *dataDir != "" {
		if *role != "orchestrator" {
			// Leaf substrate state is reconstructable from -substrate; only the
			// orchestration layer holds state worth journaling.
			log.Printf("warning: -data-dir is orchestrator-only, ignoring it for role %q", *role)
		} else {
			var err error
			recState, recInfo, err = journal.Recover(*dataDir)
			if err != nil {
				log.Fatalf("recover %s: %v", *dataDir, err)
			}
			store, err = journal.Open(*dataDir, journal.Options{SyncEachRecord: *jstrict})
			if err != nil {
				log.Fatalf("open journal %s: %v", *dataDir, err)
			}
			if recInfo.Recovered {
				log.Printf("recovered from %s: %d shards (%d checkpoints), %d records replayed, %d services, %d jobs (%d torn tails skipped, %d replay errors) in %.3fs",
					*dataDir, recInfo.Shards, recInfo.CheckpointsLoaded, recInfo.RecordsReplayed,
					recInfo.ServicesRestored, recInfo.JobsRecovered, recInfo.TornTails, len(recInfo.Errors), recInfo.DurationSeconds)
				for _, e := range recInfo.Errors {
					log.Printf("recovery: %s", e)
				}
			}
		}
	}

	layer, kids, err := buildLayer(*role, *id, *substrate, *nodes, *view, *types, *shard, children, store, recState)
	if err != nil {
		log.Fatal(err)
	}
	srv := api.NewServer(layer, nil)
	if *pprofFlag {
		srv.WithPprof()
	}
	var queue *admission.Queue
	if *admit {
		var tracer *obs.Tracer
		if *tracing {
			tracer = obs.NewTracer(0)
		}
		opts := admission.Options{
			MaxBatch:          *maxBatch,
			TenantWeights:     tenantWeights.weights,
			DefaultWeight:     *defWeight,
			TenantQueueCap:    *tenantCap,
			TenantMaxInFlight: *tenantInFl,
			AgeAfter:          *ageAfter,
			DisableFairness:   *fifo,
			Tracer:            tracer,
		}
		if store != nil {
			opts.Journal = store
		}
		queue = admission.New(layer, opts)
		srv.WithAdmission(queue)
	}

	if store != nil {
		ro, _ := layer.(*core.ResourceOrchestrator)
		if queue != nil && recState != nil && len(recState.Jobs) > 0 && ro != nil {
			// Reconcile recovered jobs against the recovered service table:
			// jobs whose services committed before the crash finish with their
			// recovered receipts, the rest re-enter the queue with tenant,
			// priority and trace identity intact.
			plans := admission.BuildResumePlans(recState.Jobs, ro.ServiceReceipts())
			requeued, completed := queue.Resume(plans)
			recInfo.JobsRequeued = requeued
			log.Printf("resumed %d jobs: %d requeued, %d completed by reconciliation", requeued+completed, requeued, completed)
		}
		if ro != nil {
			store.StartCheckpoints(*ckptEvery, ro.ShardSnapshots)
		}
		srv.WithJournal(store).WithRecovery(recInfo)
	}

	// Fleet lifecycle: the controller adopts the children buildLayer already
	// attached (ACTIVE, no re-merge), installs the availability gate, and
	// probes each child's /healthz. A child failing -evict-after consecutive
	// rounds is detached and its services re-embedded onto the survivors,
	// with the child's admission lane paused for the window.
	var fc *fleet.Controller
	if ro, ok := layer.(*core.ResourceOrchestrator); ok && *fleetOn {
		var pauser fleet.Pauser
		if queue != nil {
			pauser = queue
		}
		fc = fleet.New(fleet.Config{
			Orchestrator:  ro,
			Admission:     pauser,
			ProbeInterval: *probeInterval,
			ProbeTimeout:  *probeTimeout,
			DegradeAfter:  *degradeAfter,
			EvictAfter:    *evictAfter,
			MaxMigrations: *maxMigrations,
			OnTransition: func(name string, from, to fleet.State) {
				log.Printf("fleet: domain %s: %s -> %s", name, from, to)
			},
		})
		for _, d := range kids {
			fc.Adopt(d)
		}
		fc.Run()
		srv.WithFleet(fc)
	}

	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s %q serving the Unify interface on http://%s (admission=%v, durable=%v)", *role, *id, addr, *admit, store != nil)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	// Ordered shutdown: stop the fleet prober first (no eviction may start
	// against a closing plane), then the listener with a bounded drain
	// (in-flight requests finish against a live queue), then the queue
	// (remaining jobs terminate and journal their outcomes), then seal the
	// journal with a final checkpoint so the next boot replays nothing.
	if fc != nil {
		fc.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = srv.Shutdown(ctx)
	cancel()
	if queue != nil {
		queue.Close()
	}
	if store != nil {
		if ro, ok := layer.(*core.ResourceOrchestrator); ok {
			if err := store.Checkpoint(ro.ShardSnapshots); err != nil {
				log.Printf("final checkpoint: %v", err)
			}
		}
		if err := store.Close(); err != nil {
			log.Printf("close journal: %v", err)
		}
	}
}

// runReplica runs the read-replica role: dial the writer, start the sync
// loop, and serve the replica layer until SIGINT/SIGTERM. The replica is
// stateless — nothing to journal, no admission queue, no fleet — so its
// shutdown is just listener drain then sync-loop stop.
func runReplica(id, listen, writerURL string, proxyWrites bool, window time.Duration, pprofOn bool) {
	cli, err := api.Dial(id+"-writer", writerURL)
	if err != nil {
		log.Fatalf("dial writer %s: %v", writerURL, err)
	}
	opts := []api.ReplicaOption{api.WithWatchWindow(window)}
	if proxyWrites {
		opts = append(opts, api.ProxyWrites())
	}
	rep := api.NewReplica(id, cli, opts...)
	rep.Start(context.Background())
	srv := api.NewServer(rep, nil).WithReplica(rep)
	if pprofOn {
		srv.WithPprof()
	}
	addr, err := srv.Listen(listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("replica %q of %s serving reads on http://%s (proxy-writes=%v)", id, writerURL, addr, proxyWrites)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = srv.Shutdown(ctx)
	cancel()
	rep.Stop()
}

// buildLayer constructs the serving layer; for orchestrators it also returns
// the attached child handles so the fleet controller can adopt them.
func buildLayer(role, id, substratePath string, nodes int, view, types, shard string, children childFlags, store *journal.Store, state *journal.RecoveredState) (unify.Layer, []domain.Domain, error) {
	virt, err := pickVirtualizer(view, id)
	if err != nil {
		return nil, nil, err
	}
	switch role {
	case "leaf":
		sub, err := loadOrGenerateSubstrate(id, substratePath, nodes, strings.Split(types, ","))
		if err != nil {
			return nil, nil, err
		}
		lo, err := core.NewLocalOrchestrator(core.LocalConfig{ID: id, Substrate: sub, Virtualizer: virt})
		return lo, nil, err
	case "orchestrator":
		if len(children) == 0 {
			return nil, nil, fmt.Errorf("orchestrator needs at least one -child name=url")
		}
		var shardKey core.ShardKeyFunc
		switch shard {
		case "domain":
			shardKey = core.ShardPerDomain
		case "single":
			shardKey = core.SingleShard
		default:
			return nil, nil, fmt.Errorf("unknown -shard %q (want domain or single)", shard)
		}
		cfg := core.Config{ID: id, Virtualizer: virt, ShardKey: shardKey}
		if store != nil {
			cfg.Journal = store
		}
		ro := core.NewResourceOrchestrator(cfg)
		if state != nil {
			if err := ro.Restore(state); err != nil {
				return nil, nil, fmt.Errorf("restore journal state: %w", err)
			}
		}
		var kids []domain.Domain
		for _, spec := range children {
			name, url, ok := strings.Cut(spec, "=")
			if !ok {
				return nil, nil, fmt.Errorf("bad -child %q (want name=url)", spec)
			}
			cli, err := api.Dial(name, url)
			if err != nil {
				return nil, nil, fmt.Errorf("child %s: %w", name, err)
			}
			// Reattach (not Attach) when recovering: a child already merged
			// into the recovered DoV must not merge a second time. Unknown
			// children fall through to a normal Attach inside Reattach.
			attach := ro.Attach
			if state != nil && !state.Empty() {
				attach = ro.Reattach
			}
			if err := attach(context.Background(), cli); err != nil {
				return nil, nil, fmt.Errorf("attach %s: %w", name, err)
			}
			log.Printf("attached child %s at %s", name, url)
			kids = append(kids, cli)
		}
		return ro, kids, nil
	default:
		return nil, nil, fmt.Errorf("unknown role %q", role)
	}
}

func pickVirtualizer(view, id string) (core.Virtualizer, error) {
	switch view {
	case "single":
		return core.SingleBiSBiS{NodeID: nffg.ID("bisbis@" + id)}, nil
	case "domain":
		return core.DomainBiSBiS{}, nil
	case "transparent":
		return core.Transparent{}, nil
	default:
		return nil, fmt.Errorf("unknown view %q", view)
	}
}

func loadOrGenerateSubstrate(id, path string, nodes int, types []string) (*nffg.NFFG, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return nffg.DecodeJSON(f)
	}
	// Generated line: sapA - n1 - ... - nN - sapB.
	b := nffg.NewBuilder(id + "-sub")
	var ids []nffg.ID
	for i := 1; i <= nodes; i++ {
		nid := nffg.ID(fmt.Sprintf("%s-n%d", id, i))
		b.BiSBiS(nid, id, 4, nffg.Resources{CPU: 16, Mem: 16384, Storage: 128}, types...)
		ids = append(ids, nid)
	}
	b.SAP("sapA").SAP("sapB")
	b.Link("u1", "sapA", "1", ids[0], "1", 1000, 0.5)
	for i := 0; i < nodes-1; i++ {
		b.Link(fmt.Sprintf("l%d", i), ids[i], "2", ids[i+1], "1", 1000, 0.5)
	}
	b.Link("u2", ids[nodes-1], "2", "sapB", "1", 1000, 0.5)
	return b.Build()
}
