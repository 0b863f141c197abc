package api

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/fleet"
	"github.com/unify-repro/escape/internal/obs"
	"github.com/unify-repro/escape/internal/unify"
)

// startObsServer builds a two-domain orchestrator behind an admission queue
// with tracing, served over HTTP.
func startObsServer(t *testing.T) (*core.ResourceOrchestrator, *admission.Queue, *Server, *Client) {
	t.Helper()
	ro := core.NewResourceOrchestrator(core.Config{ID: "mdo"})
	q := admission.New(ro, admission.Options{Tracer: obs.NewTracer(0)})
	t.Cleanup(q.Close)
	// A fleet controller adopts the attached leaves so unify_fleet joins the
	// exposition the completeness test walks (the probe loop stays off).
	fc := fleet.New(fleet.Config{Orchestrator: ro, Admission: q})
	for _, id := range []string{"d0", "d1"} {
		lo := leaf(t, id)
		if err := ro.Attach(context.Background(), lo); err != nil {
			t.Fatal(err)
		}
		fc.Adopt(lo)
	}
	srv := NewServer(ro, nil).WithAdmission(q).WithFleet(fc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := Dial("mdo", "http://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	return ro, q, srv, cli
}

// TestTraceOverHTTP: an async install produces a retrievable span tree
// covering admission wait, map, commit, child deploy and leaf programming,
// addressable by job ID.
func TestTraceOverHTTP(t *testing.T) {
	_, _, _, cli := startObsServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	job, err := cli.SubmitAsync(ctx, sg(t, "svc-traced"))
	if err != nil {
		t.Fatal(err)
	}
	if job.TraceID == "" {
		t.Fatalf("submitted job has no trace ID: %+v", job)
	}
	done, err := cli.WaitJob(ctx, job.ID)
	if err != nil || done.State != admission.StateDeployed {
		t.Fatalf("job: %+v %v", done, err)
	}

	td, err := cli.Trace(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if td.ID != job.TraceID {
		t.Fatalf("trace ID mismatch: %s vs %s", td.ID, job.TraceID)
	}
	byName := map[string]obs.SpanData{}
	for _, s := range td.Spans {
		byName[s.Name] = s
	}
	for _, want := range []string{"job", "admission.wait", "orchestrator.map", "orchestrator.commit", "deploy.child", "local.program"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("trace missing span %q (have %v)", want, names(td))
		}
	}
	if byName["job"].Duration <= 0 {
		t.Errorf("job span has no duration: %+v", byName["job"])
	}
	// The same tree is addressable by raw trace ID, and renders as a tree
	// rooted at the job span.
	byTID, err := cli.Trace(ctx, job.TraceID)
	if err != nil || len(byTID.Spans) != len(td.Spans) {
		t.Fatalf("trace by ID: %d spans, %v", len(byTID.Spans), err)
	}
	lines := obs.TreeLines(td)
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "job ") {
		t.Fatalf("tree lines: %q", lines)
	}

	// Unknown IDs are a clean 404.
	if _, err := cli.Trace(ctx, "no-such"); !errors.Is(err, unify.ErrUnknownService) {
		t.Fatalf("unknown trace: %v", err)
	}
}

func names(td obs.TraceData) []string {
	out := make([]string, 0, len(td.Spans))
	for _, s := range td.Spans {
		out = append(out, s.Name)
	}
	return out
}

// TestTraceHeaderPropagation: a layer stacked over a remote layer propagates
// the trace ID via X-Unify-Trace, so both layers' span buffers share one
// trace ID (the joined-tree contract for recursive deployments).
func TestTraceHeaderPropagation(t *testing.T) {
	// Child layer: a leaf behind its own server + queue + tracer.
	lo := leaf(t, "far")
	childTracer := obs.NewTracer(0)
	cq := admission.New(lo, admission.Options{Tracer: childTracer})
	t.Cleanup(cq.Close)
	csrv := NewServer(lo, nil).WithAdmission(cq)
	caddr, err := csrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(csrv.Close)
	remote, err := Dial("far", "http://"+caddr)
	if err != nil {
		t.Fatal(err)
	}

	// Top layer: an orchestrator whose only domain is the remote client.
	ro := core.NewResourceOrchestrator(core.Config{ID: "top"})
	if err := ro.Attach(context.Background(), remote); err != nil {
		t.Fatal(err)
	}
	tq := admission.New(ro, admission.Options{Tracer: obs.NewTracer(0)})
	t.Cleanup(tq.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	job, err := tq.Submit(ctx, sg(t, "svc-deep"))
	if err != nil {
		t.Fatal(err)
	}
	done, err := tq.Wait(ctx, job.ID)
	if err != nil || done.State != admission.StateDeployed {
		t.Fatalf("job: %+v %v", done, err)
	}

	// The child adopted the top layer's trace ID: its tracer holds a trace
	// under the SAME ID, with the child-side spans.
	childTrace := childTracer.Lookup(job.TraceID)
	if childTrace == nil {
		t.Fatalf("child did not adopt trace %s", job.TraceID)
	}
	ctd := childTrace.Snapshot()
	has := map[string]bool{}
	for _, s := range ctd.Spans {
		has[s.Name] = true
	}
	if !has["job"] || !has["local.program"] {
		t.Fatalf("child trace incomplete: %v", names(ctd))
	}
}

// TestMetricsCompleteness: every metric name derivable from the server's
// collectors (i.e. every exported numeric stats field, histogram, and map
// series) appears in the live /metrics exposition.
func TestMetricsCompleteness(t *testing.T) {
	_, _, srv, cli := startObsServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Drive real traffic so the labeled map series (tenants, shards, stages)
	// are populated before names are derived.
	actx := unify.WithMeta(ctx, unify.RequestMeta{Tenant: "acme"})
	if _, err := cli.Install(actx, sg(t, "svc-metrics")); err != nil {
		t.Fatal(err)
	}

	body, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range srv.MetricCollectors() {
		for _, name := range obs.MetricNames(c) {
			if !strings.Contains(body, name) {
				t.Errorf("/metrics missing %s", name)
			}
		}
	}
	// Spot-check the shapes: a labeled tenant counter and a native histogram.
	for _, want := range []string{
		`unify_admission_tenants_deployed{layer="mdo",tenant="acme"} 1`,
		`unify_stage_bucket{layer="mdo",stage="e2e",le="+Inf"} 1`,
		`unify_pipeline_installs{layer="mdo"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%.2000s", want, body)
		}
	}
}

// TestHealthzOverHTTP: the readiness probe reports build identity and the
// attached shard/domain counts.
func TestHealthzOverHTTP(t *testing.T) {
	_, _, _, cli := startObsServer(t)
	h, err := cli.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Layer != "mdo" {
		t.Fatalf("health: %+v", h)
	}
	if h.Shards != 2 || h.Domains != 2 {
		t.Fatalf("health counts: %+v", h)
	}
	if h.GoVersion == "" {
		t.Fatalf("health missing build info: %+v", h)
	}
}

// TestMetricsTraceStorm hammers /metrics and /unify/trace/{id} while a
// commit storm runs — the -race exercise for the whole observability plane.
func TestMetricsTraceStorm(t *testing.T) {
	_, _, _, cli := startObsServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const workers, cycles = 3, 15
	var jobMu sync.Mutex
	var lastJob string
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < cycles; i++ {
				id := fmt.Sprintf("storm-%d-%d", w, i)
				job, err := cli.SubmitAsync(ctx, sg(t, id))
				if err != nil {
					continue // queue pressure: the storm goes on
				}
				jobMu.Lock()
				lastJob = job.ID
				jobMu.Unlock()
				done, err := cli.WaitJob(ctx, job.ID)
				if err != nil {
					return
				}
				if done.State == admission.StateDeployed {
					_ = cli.Remove(ctx, id)
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cli.Metrics(ctx); err != nil && ctx.Err() == nil {
					t.Errorf("metrics during storm: %v", err)
					return
				}
				jobMu.Lock()
				id := lastJob
				jobMu.Unlock()
				if id != "" {
					_, _ = cli.Trace(ctx, id) // 404 after eviction is fine; races are not
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}
