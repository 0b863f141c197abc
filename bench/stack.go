package bench

import (
	"context"
	"fmt"
	"net/http"
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

// The modeled leaf programmer of cmd/experiments/scenario.go: one barrier
// round trip per delta plus a small per-operation term, slept and recorded.
const (
	barrierRTT = 200 * time.Microsecond
	perOp      = 2 * time.Microsecond
)

// opTimeout is the deadline every generated operation carries; hitting it is
// a failure.
const opTimeout = 5 * time.Second

// StackConfig selects what NewStack builds. Everything not listed here is
// fixed to the flag defaults of cmd/escaped.
type StackConfig struct {
	Topo Topology
	// DataDir, when set, runs the MdO with -data-dir: write-ahead journal,
	// job WAL on the queue and periodic checkpoints.
	DataDir string
	// TenantWeights are the MdO queue's -tenant-weight entries.
	TenantWeights map[string]int
	// Tracer, when set, interposes the recording decorators at every layer
	// boundary. Nil builds the undecorated stack end-to-end numbers come from.
	Tracer *Tracer
}

// Leaf is one leaf domain: `escaped -role leaf`.
type Leaf struct {
	LO    *core.LocalOrchestrator
	Queue *admission.Queue
	srv   *api.Server
}

// Stack is the system under test in one process: a client, the MdO
// (`escaped -role orchestrator`) and its leaves, every hop between them a
// loopback HTTP connection.
type Stack struct {
	Topo   Topology
	Client *api.Client
	MdO    *core.ResourceOrchestrator
	Queue  *admission.Queue
	Store  *journal.Store // nil without DataDir
	Fleet  *fleet.Controller
	Leaves []*Leaf
	srv    *api.Server
	closed bool
}

// newQueue is the admission queue of escaped's main: the options it sets
// from flags, at their defaults.
func newQueue(layer unify.Layer, weights map[string]int, wal admission.JobJournal) *admission.Queue {
	return admission.New(layer, admission.Options{
		Window:        2 * time.Millisecond, // -batch-window
		MaxBatch:      32,                   // -batch-max
		TenantWeights: weights,              // -tenant-weight
		DefaultWeight: 1,                    // -tenant-default-weight
		Tracer:        obs.NewTracer(0),     // -tracing=true
		Journal:       wal,                  // -data-dir
		// -tenant-queue-cap, -tenant-inflight, -age-after and -fifo default
		// to the zero values.
	})
}

func newLeaf(t Topology, d int, tr *Tracer) (*Leaf, error) {
	id := domainID(d)
	var lo *core.LocalOrchestrator
	var prog core.Programmer = core.ProgrammerFunc(func(ctx context.Context, delta *nffg.Delta, _ *nffg.NFFG) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		addNF, delNF, addR, delR := delta.Counts()
		cost := barrierRTT + time.Duration(addNF+delNF+addR+delR)*perOp
		time.Sleep(cost)
		sb := lo.Southbound()
		sb.AddFlowMods(uint64(addR + delR))
		sb.AddBarriers(1)
		sb.ObserveWindow(uint64(addR + delR))
		sb.AddContainerOps(uint64(addNF + delNF))
		sb.ObserveDelta(cost)
		return nil
	})
	if tr != nil {
		prog = tracedProgrammer{prog, tr}
	}
	lo, err := core.NewLocalOrchestrator(core.LocalConfig{
		ID:          id,
		Substrate:   t.Substrate(d),                                     // -substrate
		Virtualizer: core.SingleBiSBiS{NodeID: nffg.ID("bisbis@" + id)}, // -view single
		Programmer:  prog,
	})
	if err != nil {
		return nil, err
	}
	var layer unify.Layer = lo
	if tr != nil {
		layer = tracedLO{lo, tr}
	}
	leaf := &Leaf{LO: lo, Queue: newQueue(layer, nil, nil)} // -admission=true
	leaf.srv = api.NewServer(layer, nil).WithAdmission(leaf.Queue)
	return leaf, nil
}

// NewStack brings the whole hierarchy up and attaches every leaf, in the
// order escaped's main does it.
func NewStack(cfg StackConfig) (_ *Stack, err error) {
	s := &Stack{Topo: cfg.Topo}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	urls := make([]string, cfg.Topo.Domains)
	for d := range urls {
		leaf, err := newLeaf(cfg.Topo, d, cfg.Tracer)
		if err != nil {
			return nil, err
		}
		s.Leaves = append(s.Leaves, leaf)
		addr, err := leaf.srv.Listen("127.0.0.1:0") // -listen
		if err != nil {
			return nil, err
		}
		urls[d] = "http://" + addr
	}

	var roJournal core.Journal
	var wal admission.JobJournal
	var recInfo *journal.Info
	if cfg.DataDir != "" {
		if _, recInfo, err = journal.Recover(cfg.DataDir); err != nil {
			return nil, err
		}
		// -journal-strict=false: the periodic background fsync.
		if s.Store, err = journal.Open(cfg.DataDir, journal.Options{}); err != nil {
			return nil, err
		}
		roJournal, wal = s.Store, s.Store
		if cfg.Tracer != nil {
			tj := tracedJournal{s.Store, cfg.Tracer}
			roJournal, wal = tj, tj
		}
	}
	s.MdO = core.NewResourceOrchestrator(core.Config{
		ID:          "mdo",
		Virtualizer: core.SingleBiSBiS{NodeID: "bisbis@mdo"}, // -view single
		ShardKey:    core.ShardPerDomain,                     // -shard domain
		Journal:     roJournal,
	})
	var kids []domain.Domain
	for d, url := range urls {
		cli, err := api.Dial(domainID(d), url) // -child name=url
		if err != nil {
			return nil, err
		}
		var kid domain.Domain = cli
		if cfg.Tracer != nil {
			kid = tracedDomain{cli, cfg.Tracer, spanChildInstall, spanChildRemove}
		}
		if err := s.MdO.Attach(context.Background(), kid); err != nil {
			return nil, err
		}
		kids = append(kids, kid)
	}
	var layer unify.Layer = s.MdO
	if cfg.Tracer != nil {
		layer = tracedRO{s.MdO, cfg.Tracer}
	}
	s.Queue = newQueue(layer, cfg.TenantWeights, wal) // -admission=true
	s.srv = api.NewServer(layer, nil).WithAdmission(s.Queue)
	if s.Store != nil {
		s.Store.StartCheckpoints(10*time.Second, s.MdO.ShardSnapshots) // -checkpoint-interval
		s.srv.WithJournal(s.Store).WithRecovery(recInfo)
	}
	s.Fleet = fleet.New(fleet.Config{ // -fleet=true
		Orchestrator:  s.MdO,
		Admission:     s.Queue,
		ProbeInterval: 2 * time.Second, // -probe-interval
		ProbeTimeout:  time.Second,     // -probe-timeout
		DegradeAfter:  1,               // -degrade-after
		EvictAfter:    3,               // -evict-after
		MaxMigrations: 2,               // -max-migrations
	})
	for _, d := range kids {
		s.Fleet.Adopt(d)
	}
	s.Fleet.Run()
	s.srv.WithFleet(s.Fleet)
	addr, err := s.srv.Listen("127.0.0.1:0") // -listen
	if err != nil {
		return nil, err
	}
	s.Client, err = api.Dial("client", "http://"+addr)
	return s, err
}

// preloaders is how many clients install the residents: as many as any
// workload runs, so the queues' cumulative high-water marks (depth, batch
// size) are the workload's own and not set-up's.
const preloaders = 2

// Preload installs the resident services through the same northbound API
// measured installs use, each client taking every other domain. The seed
// fixes the residents' NF types.
func (s *Stack) Preload(ctx context.Context, seed int64) error {
	errs := make(chan error, preloaders)
	for c := 0; c < preloaders; c++ {
		go func(c int) {
			for d := c; d < s.Topo.Domains; d += preloaders {
				rng := newRand(seed, "resident", d)
				for k := 0; k < s.Topo.Residents; k++ {
					octx, cancel := context.WithTimeout(ctx, opTimeout)
					_, err := s.Client.Install(octx, chain(residentID(d, k), sapA(d, k), sapZ(d, k), 2, 10, rng))
					cancel()
					if err != nil {
						errs <- fmt.Errorf("preload %s: %w", residentID(d, k), err)
						return
					}
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < preloaders; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close shuts the stack down in escaped's order: fleet prober, listener
// drain, queue, final checkpoint and journal; then the leaves. It is safe on
// a partly built stack and a second call does nothing.
func (s *Stack) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.Fleet != nil {
		s.Fleet.Stop()
	}
	// Every api.Client here uses http.DefaultTransport. A connection it dialled
	// but never sent a request on counts as busy to the server's drain, which
	// would then sit out its whole timeout.
	http.DefaultClient.CloseIdleConnections()
	shutdown := func(srv *api.Server) {
		if srv == nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = srv.Shutdown(ctx) // a drain that times out force-closes what is left
		cancel()
	}
	shutdown(s.srv)
	if s.Queue != nil {
		s.Queue.Close()
	}
	if s.Store != nil {
		_ = s.Store.Checkpoint(s.MdO.ShardSnapshots) // recovery check reads the result
		_ = s.Store.Close()
	}
	for _, l := range s.Leaves {
		shutdown(l.srv)
		l.Queue.Close()
	}
}
