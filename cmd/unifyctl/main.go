// Command unifyctl is the operator CLI for any layer serving the Unify
// interface (see cmd/escaped): it fetches virtualization views, submits
// service requests, and lists or removes deployed services.
//
// Usage:
//
//	unifyctl -server http://127.0.0.1:8181 [-timeout 30s] view [-format text|json|xml]
//	unifyctl -server http://127.0.0.1:8181 [-tenant acme] [-priority high] submit request.json
//	unifyctl -server http://127.0.0.1:8181 submit -async [-wait] request.json
//	unifyctl -server http://127.0.0.1:8181 list
//	unifyctl -server http://127.0.0.1:8181 remove <service-id>
//	unifyctl -server http://127.0.0.1:8181 capabilities
//	unifyctl -server http://127.0.0.1:8181 jobs
//	unifyctl -server http://127.0.0.1:8181 job <job-id>
//	unifyctl -server http://127.0.0.1:8181 watch <job-id>
//	unifyctl -server http://127.0.0.1:8181 cancel-job <job-id>
//	unifyctl -server http://127.0.0.1:8181 stats
//	unifyctl -server http://127.0.0.1:8181 watch-view [-format json]
//	unifyctl -server http://127.0.0.1:8181 trace <job-or-trace-id>
//	unifyctl -server http://127.0.0.1:8181 health
//	unifyctl -server http://127.0.0.1:8181 domains
//	unifyctl -server http://127.0.0.1:8181 drain <domain>
//
// submit -async returns a job ID immediately (the server answers 202 before
// the multi-domain fan-out finishes); -wait long-polls the job to completion.
// stats is the text view of the control plane (GET /metrics is the machine
// view of the same counters): it fetches the consolidated GET /v1/unify/stats
// document in one round trip — mapping-pipeline counters (with per-shard DoV
// generations for sharded orchestrators), admission-queue gauges, southbound
// and journal counters, fleet summary and replica sync state, whichever the
// layer exposes. watch-view follows the layer's view stream
// (GET /v1/unify/watch), printing one line per committed generation — or,
// with -format json, each full view — until interrupted; it resumes across
// poll windows and dedupes duplicate deliveries by ETag. trace renders the recorded span tree of a
// job: admission wait,
// map/commit cycles, per-child deploys and southbound flushes, with
// durations. domains renders the fleet controller's per-domain lifecycle
// table; drain evicts one domain and blocks until its services are re-embedded
// onto the survivors (run drain without -timeout pressure: it implies real
// installs).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/api"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/obs"
	"github.com/unify-repro/escape/internal/unify"
)

func main() {
	log.SetPrefix("unifyctl: ")
	log.SetFlags(0)
	server := flag.String("server", "http://127.0.0.1:8181", "Unify interface endpoint")
	format := flag.String("format", "text", "view output: text | json | xml")
	timeout := flag.Duration("timeout", 30*time.Second, "deadline for the remote operation (0 = none)")
	async := flag.Bool("async", false, "submit: enqueue and return a job ID instead of waiting")
	wait := flag.Bool("wait", false, "submit -async: long-poll the job to completion")
	tenant := flag.String("tenant", "", "submit: tenant identity (X-Unify-Tenant; empty = the server's default tenant)")
	priority := flag.String("priority", "", "submit: admission priority: low | normal | high")
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	// Ctrl-C cancels the in-flight operation server-side too: the deadline and
	// cancellation propagate down the whole orchestration hierarchy.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	timeoutSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "timeout" {
			timeoutSet = true
		}
	})
	// Long-polls (watch, watch-view, submit -async -wait) run without the
	// default deadline — a healthy deployment may legitimately outlive it —
	// unless the user asked for one explicitly.
	baseCtx := ctx
	if *timeout > 0 && (timeoutSet || (flag.Arg(0) != "watch" && flag.Arg(0) != "watch-view")) {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	prio, err := unify.ParsePriority(*priority)
	if err != nil {
		log.Fatal(err)
	}
	if *tenant != "" || *priority != "" {
		// The metadata rides the context into the API client, which maps it
		// onto the X-Unify-* headers of every submission.
		meta := unify.RequestMeta{Tenant: *tenant, Priority: prio}
		ctx = unify.WithMeta(ctx, meta)
		baseCtx = unify.WithMeta(baseCtx, meta)
	}
	cli, err := api.Dial("remote", *server)
	if err != nil {
		log.Fatal(err)
	}
	switch cmd := flag.Arg(0); cmd {
	case "view":
		v, err := cli.View(ctx)
		if err != nil {
			log.Fatal(err)
		}
		switch *format {
		case "json":
			if err := v.EncodeJSON(os.Stdout); err != nil {
				log.Fatal(err)
			}
		case "xml":
			if err := v.EncodeXML(os.Stdout); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		default:
			fmt.Print(v.Render())
		}
	case "submit":
		// Flags may follow the subcommand: submit -async -wait request.json.
		sub := flag.NewFlagSet("submit", flag.ExitOnError)
		subAsync := sub.Bool("async", *async, "enqueue and return a job ID instead of waiting")
		subWait := sub.Bool("wait", *wait, "with -async: long-poll the job to completion")
		_ = sub.Parse(flag.Args()[1:])
		if sub.NArg() < 1 {
			log.Fatal("submit needs a request file (NFFG JSON)")
		}
		if sub.NArg() > 1 {
			// Parsing stops at the first positional: trailing flags would be
			// silently ignored otherwise.
			log.Fatalf("submit: unexpected arguments %v (flags go before the request file)", sub.Args()[1:])
		}
		f, err := os.Open(sub.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		req, err := nffg.DecodeJSON(f)
		_ = f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if *subAsync {
			job, err := cli.SubmitAsync(ctx, req)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("job %s %s (service %s)\n", job.ID, job.State, job.ServiceID)
			if !*subWait {
				return
			}
			waitCtx := ctx
			if !timeoutSet {
				waitCtx = baseCtx
			}
			done, err := cli.WaitJob(waitCtx, job.ID)
			if err != nil {
				log.Fatal(err)
			}
			printJob(done)
			if done.State != admission.StateDeployed {
				os.Exit(1)
			}
			printReceipt(done.Receipt)
			return
		}
		receipt, err := cli.Install(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("service %s deployed\n", receipt.ServiceID)
		printReceipt(receipt)
	case "list":
		ids, err := cli.ListServices(ctx)
		if err != nil {
			log.Fatal(err)
		}
		for _, id := range ids {
			fmt.Println(id)
		}
	case "remove":
		if flag.NArg() < 2 {
			log.Fatal("remove needs a service ID")
		}
		if err := cli.Remove(ctx, flag.Arg(1)); err != nil {
			log.Fatal(err)
		}
		fmt.Println("removed", flag.Arg(1))
	case "capabilities":
		caps, err := cli.RemoteCapabilities(ctx)
		if err != nil {
			log.Fatal(err)
		}
		for _, c := range caps {
			fmt.Println(c)
		}
	case "jobs":
		jobs, err := cli.Jobs(ctx)
		if err != nil {
			log.Fatal(err)
		}
		for _, j := range jobs {
			printJob(j)
		}
	case "job":
		if flag.NArg() < 2 {
			log.Fatal("job needs a job ID")
		}
		j, err := cli.Job(ctx, flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		printJob(j)
	case "watch":
		if flag.NArg() < 2 {
			log.Fatal("watch needs a job ID")
		}
		j, err := cli.WaitJob(ctx, flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		printJob(j)
		if j.State == admission.StateDeployed {
			printReceipt(j.Receipt)
		}
	case "cancel-job":
		if flag.NArg() < 2 {
			log.Fatal("cancel-job needs a job ID")
		}
		if err := cli.CancelJob(ctx, flag.Arg(1)); err != nil {
			log.Fatal(err)
		}
		fmt.Println("canceled", flag.Arg(1))
	case "stats":
		doc, err := cli.Stats(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if doc.ETag != "" {
			fmt.Printf("layer %s: api=%s generation=%d etag=%s\n", doc.Layer, doc.APIVersion, doc.Generation, doc.ETag)
		}
		if doc.Pipeline != nil {
			printPipeline(*doc.Pipeline)
		} else {
			fmt.Println("pipeline: n/a")
		}
		if sb := doc.Southbound; sb != nil {
			fmt.Printf("southbound: deltas=%d flow-mods=%d barriers=%d fm/barrier=%.1f window-hw=%d netconf-rpcs=%d container-ops=%d mean-delta=%s max-delta=%s\n",
				sb.Deltas, sb.FlowMods, sb.Barriers, sb.FlowModsPerBarrier(), sb.WindowHighWater,
				sb.NetconfRPCs, sb.ContainerOps,
				sb.MeanDeltaLatency().Round(time.Microsecond), sb.MaxDeltaLatency().Round(time.Microsecond))
		}
		if doc.Admission != nil {
			printAdmission(*doc.Admission)
		} else {
			fmt.Println("queue: n/a")
		}
		if j := doc.Journal; j != nil {
			fmt.Printf("journal: appends=%d bytes=%d syncs=%d checkpoints=%d compactions=%d append-errors=%d sync-errors=%d checkpoint-errors=%d\n",
				j.Appends, j.BytesWritten, j.Syncs, j.Checkpoints, j.Compactions, j.AppendErrors, j.SyncErrors, j.CheckpointE)
		}
		if f := doc.Fleet; f != nil {
			fmt.Printf("fleet: domains=%d active=%d degraded=%d evicting=%d detached=%d evictions=%d rehomed=%d\n",
				f.Stats.Domains, f.Stats.Active, f.Stats.Degraded, f.Stats.Evicting,
				f.Stats.Detached, f.Stats.Evictions, f.Stats.ServicesRehomed)
		}
		if r := doc.Replica; r != nil {
			fmt.Printf("replica: writer=%s synced=%t generation=%d etag=%s events=%d heartbeats=%d duplicates=%d reconnects=%d\n",
				r.Writer, r.Synced, r.Generation, r.ETag, r.Events, r.Heartbeats, r.Duplicates, r.Reconnects)
		}
	case "watch-view":
		// Follow the layer's view stream: one line per committed generation,
		// resuming across poll windows, until interrupted. -format json dumps
		// each changed view in full instead.
		var from uint64
		lastETag := ""
		if _, ver, err := cli.ViewVersioned(ctx); err == nil {
			from, lastETag = ver.Generation, ver.ETag
			fmt.Printf("gen=%-6d etag=%s (current)\n", ver.Generation, ver.ETag)
		}
		for {
			ev, changed, err := cli.WatchOnce(baseCtx, from, 0)
			if err != nil {
				if baseCtx.Err() != nil {
					return
				}
				log.Fatal(err)
			}
			if ev.Generation > from {
				from = ev.Generation
			}
			if !changed || ev.ETag == lastETag {
				continue // heartbeat, or a duplicate delivery of a seen version
			}
			lastETag = ev.ETag
			if *format == "json" && ev.View != nil {
				if err := ev.View.EncodeJSON(os.Stdout); err != nil {
					log.Fatal(err)
				}
				continue
			}
			nodes, nfs := 0, 0
			if ev.View != nil {
				nodes, nfs = len(ev.View.Infras), len(ev.View.NFs)
			}
			fmt.Printf("gen=%-6d etag=%s nodes=%d nfs=%d services=%d\n",
				ev.Generation, ev.ETag, nodes, nfs, len(ev.Services))
		}
	case "trace":
		if flag.NArg() < 2 {
			log.Fatal("trace needs a job or trace ID")
		}
		td, err := cli.Trace(ctx, flag.Arg(1))
		if errors.Is(err, unify.ErrUnknownService) {
			log.Fatalf("no trace recorded for %q (evicted, or tracing disabled on the server)", flag.Arg(1))
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace %s (%d spans)\n", td.ID, len(td.Spans))
		for _, line := range obs.TreeLines(td) {
			fmt.Println(line)
		}
	case "health":
		h, err := cli.Health(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s layer=%s go=%s uptime=%.1fs shards=%d domains=%d queue-depth=%d\n",
			h.Status, h.Layer, h.GoVersion, h.UptimeSeconds, h.Shards, h.Domains, h.QueueDepth)
		if f := h.Fleet; f != nil {
			fmt.Printf("fleet: domains=%d active=%d degraded=%d evicting=%d detached=%d evictions=%d rehomed=%d\n",
				f.Domains, f.Active, f.Degraded, f.Evicting, f.Detached, f.Evictions, f.ServicesRehomed)
		}
		if h.Status != "ok" {
			os.Exit(1)
		}
	case "domains":
		info, err := cli.FleetStatus(ctx)
		if errors.Is(err, unify.ErrUnknownService) {
			// The server runs without a fleet controller (leaf, or -fleet=false).
			fmt.Println("fleet: n/a")
			return
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("layer %s: domains=%d active=%d degraded=%d evicting=%d detached=%d probes=%d failures=%d evictions=%d drains=%d rehomed=%d rehome-failures=%d\n",
			info.Layer, info.Stats.Domains, info.Stats.Active, info.Stats.Degraded,
			info.Stats.Evicting, info.Stats.Detached, info.Stats.Probes, info.Stats.ProbeFailures,
			info.Stats.Evictions, info.Stats.Drains, info.Stats.ServicesRehomed, info.Stats.RehomeFailures)
		for _, d := range info.Domains {
			fmt.Printf("  %-14s %-10s shard=%-14s fails=%-3d probes=%-6d rehomed=%-4d since=%s",
				d.Domain, d.State, d.Shard, d.ConsecutiveFailures, d.Probes, d.ServicesRehomed,
				d.Since.Format(time.RFC3339))
			if d.LastError != "" {
				fmt.Printf(" last-error=%q", d.LastError)
			}
			fmt.Println()
		}
	case "drain":
		if flag.NArg() < 2 {
			log.Fatal("drain needs a domain name")
		}
		result, err := cli.Drain(ctx, flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("drained %s (shard %s): displaced=%d rehomed=%d\n",
			result.Domain, result.Shard, len(result.Displaced), result.Rehomed)
		for _, id := range result.Displaced {
			fmt.Printf("  %s\n", id)
		}
	default:
		log.Fatalf("unknown command %q", cmd)
	}
}

func printPipeline(info api.PipelineInfo) {
	st := info.Stats
	fmt.Printf("layer %s: installs=%d mappasses=%d conflicts=%d busy=%d batches=%d multi-shard=%d escalations=%d merge-errors=%d\n",
		info.Layer, st.Installs, st.MapAttempts, st.GenConflicts, st.Busy, st.Batches,
		st.MultiShardCommits, st.Escalations, st.MergeErrors)
	fmt.Printf("  cache cut:  hits=%-8d misses=%-8d invalidations=%d\n",
		st.CutCache.Hits, st.CutCache.Misses, st.CutCache.Invalidations)
	fmt.Printf("  cache view: hits=%-8d misses=%-8d invalidations=%d\n",
		st.ViewCache.Hits, st.ViewCache.Misses, st.ViewCache.Invalidations)
	if sb := st.Southbound; sb.Deltas > 0 || sb.FlowMods > 0 || sb.NetconfRPCs > 0 || sb.ContainerOps > 0 {
		fmt.Printf("  southbound: deltas=%d flow-mods=%d barriers=%d fm/barrier=%.1f window-hw=%d netconf-rpcs=%d container-ops=%d mean-delta=%s max-delta=%s\n",
			sb.Deltas, sb.FlowMods, sb.Barriers, sb.FlowModsPerBarrier(), sb.WindowHighWater,
			sb.NetconfRPCs, sb.ContainerOps,
			sb.MeanDeltaLatency().Round(time.Microsecond), sb.MaxDeltaLatency().Round(time.Microsecond))
	}
	for _, sh := range info.Shards {
		fmt.Printf("  shard %-12s gen=%-6d commits=%-6d conflicts=%-6d multi=%-6d domains=%s\n",
			sh.Shard, sh.Gen, sh.Commits, sh.Conflicts, sh.MultiShardCommits, strings.Join(sh.Domains, ","))
	}
}

func printAdmission(qs admission.Stats) {
	fmt.Printf("queue: depth=%d submitted=%d deployed=%d failed=%d canceled=%d batches=%d coalesced=%d\n",
		qs.Depth, qs.Submitted, qs.Deployed, qs.Failed, qs.Canceled, qs.Batches, qs.Coalesced)
	var keys []string
	for k := range qs.Shards {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sh := qs.Shards[k]
		fmt.Printf("  lane %-12s depth=%-6d batches=%-6d coalesced=%d\n", k, sh.Depth, sh.Batches, sh.Coalesced)
	}
	var tenants []string
	for k := range qs.Tenants {
		tenants = append(tenants, k)
	}
	sort.Strings(tenants)
	for _, k := range tenants {
		t := qs.Tenants[k]
		fmt.Printf("  tenant %-12s weight=%-3d depth=%-5d inflight=%-4d submitted=%-6d deployed=%-6d failed=%-5d dropped=%-5d aged=%-4d mean-wait=%s max-wait=%s\n",
			k, t.Weight, t.Depth, t.InFlight, t.Submitted, t.Deployed, t.Failed, t.Dropped, t.Aged,
			t.MeanWait().Round(time.Microsecond), t.WaitMax.Round(time.Microsecond))
	}
}

func printJob(j admission.Job) {
	fmt.Printf("%-8s %-10s service=%s batch=%d attempts=%d", j.ID, j.State, j.ServiceID, j.Batch, j.Attempts)
	if j.Tenant != "" {
		fmt.Printf(" tenant=%s", j.Tenant)
	}
	if j.Priority != "" && j.Priority != unify.PriorityNormal {
		fmt.Printf(" priority=%s", j.Priority)
	}
	if !j.Finished.IsZero() {
		fmt.Printf(" took=%s", j.Finished.Sub(j.Submitted).Round(time.Millisecond))
	}
	if j.Error != "" {
		fmt.Printf(" error=%q", j.Error)
	}
	fmt.Println()
}

func printReceipt(r *unify.Receipt) {
	if r == nil {
		return
	}
	for nf, host := range r.Placements {
		fmt.Printf("  %-16s -> %s\n", nf, host)
	}
	for _, d := range r.Decompositions {
		fmt.Printf("  decomposition: %s\n", d)
	}
}
