package api

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

func res(cpu, mem float64) nffg.Resources { return nffg.Resources{CPU: cpu, Mem: mem, Storage: cpu} }

func leaf(t testing.TB, id string) *core.LocalOrchestrator {
	t.Helper()
	sub := nffg.NewBuilder(id+"-sub").
		BiSBiS(nffg.ID(id+"-n1"), id, 4, res(8, 4096), "fw", "nat").
		SAP("sapA").SAP("sapB").
		Link("u1", "sapA", "1", nffg.ID(id+"-n1"), "1", 100, 1).
		Link("u2", nffg.ID(id+"-n1"), "2", "sapB", "1", 100, 1).
		MustBuild()
	lo, err := core.NewLocalOrchestrator(core.LocalConfig{ID: id, Substrate: sub})
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

func startPair(t *testing.T) (*core.LocalOrchestrator, *Client) {
	t.Helper()
	lo := leaf(t, "remote")
	srv := NewServer(lo, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := Dial("remote", "http://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	return lo, cli
}

func sg(t testing.TB, id string) *nffg.NFFG {
	t.Helper()
	g, err := nffg.NewBuilder(id).
		SAP("sapA").SAP("sapB").
		NF(nffg.ID(id+"-nf"), "fw", 2, res(2, 512)).
		Chain(id, 10, 0, "sapA", nffg.ID(id+"-nf"), "sapB").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDialHealth(t *testing.T) {
	_, cli := startPair(t)
	if cli.ID() != "remote" {
		t.Fatalf("id: %s", cli.ID())
	}
	if _, err := Dial("x", "http://127.0.0.1:1"); err == nil {
		t.Fatal("dead endpoint should fail")
	}
}

func TestViewOverHTTP(t *testing.T) {
	lo, cli := startPair(t)
	local, err := lo.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	remote, err := cli.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if local.Render() != remote.Render() {
		t.Fatalf("views differ:\n%s\n---\n%s", local.Render(), remote.Render())
	}
}

func TestInstallRemoveOverHTTP(t *testing.T) {
	lo, cli := startPair(t)
	receipt, err := cli.Install(context.Background(), sg(t, "svc1"))
	if err != nil {
		t.Fatal(err)
	}
	if receipt.ServiceID != "svc1" || len(receipt.Placements) != 1 {
		t.Fatalf("receipt: %+v", receipt)
	}
	if got := lo.Services(); len(got) != 1 {
		t.Fatalf("server side: %v", got)
	}
	if got := cli.Services(); len(got) != 1 || got[0] != "svc1" {
		t.Fatalf("client list: %v", got)
	}
	if err := cli.Remove(context.Background(), "svc1"); err != nil {
		t.Fatal(err)
	}
	if got := lo.Services(); len(got) != 0 {
		t.Fatalf("not removed: %v", got)
	}
}

func TestErrorMapping(t *testing.T) {
	_, cli := startPair(t)
	// Rejection (unsupported type) -> ErrRejected.
	bad := nffg.NewBuilder("bad").
		SAP("sapA").SAP("sapB").
		NF("bad-nf", "quantum", 2, res(1, 64)).
		Chain("bad", 1, 0, "sapA", "bad-nf", "sapB").
		MustBuild()
	if _, err := cli.Install(context.Background(), bad); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("rejection mapping: %v", err)
	}
	// Unknown service -> ErrUnknownService.
	if err := cli.Remove(context.Background(), "ghost"); !errors.Is(err, unify.ErrUnknownService) {
		t.Fatalf("unknown mapping: %v", err)
	}
}

// TestInstallBodyLimit: a request graph over 16 MiB is refused with 413
// instead of being decoded.
func TestInstallBodyLimit(t *testing.T) {
	lo, cli := startPair(t)
	body := `{"id":"huge","name":"` + strings.Repeat("a", maxInstallBody) + `"}`
	resp, err := http.Post(cli.base+unifyRoot+"/services", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Code != CodeBadRequest {
		t.Fatalf("oversized install: %d %+v", resp.StatusCode, env)
	}
	if got := lo.Services(); len(got) != 0 {
		t.Fatalf("oversized request installed: %v", got)
	}
}

func TestRemoteLayerAsDomain(t *testing.T) {
	// A remote leaf attached to a local orchestrator through the HTTP
	// client: the distributed recursion.
	_, cli := startPair(t)
	ro := core.NewResourceOrchestrator(core.Config{ID: "parent"})
	if err := ro.Attach(context.Background(), cli); err != nil {
		t.Fatal(err)
	}
	req := sg(t, "dist1")
	receipt, err := ro.Install(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	child, ok := receipt.Children["remote"]
	if !ok || child.ServiceID == "" {
		t.Fatalf("child receipt: %+v", receipt.Children)
	}
	if err := ro.Remove(context.Background(), "dist1"); err != nil {
		t.Fatal(err)
	}
	if got := cli.Services(); len(got) != 0 {
		t.Fatalf("remote cleanup: %v", got)
	}
}

// TestAsyncJobsOverHTTP is the end-to-end acceptance check for the async
// northbound API: POST ?mode=async returns 202 + a job, the job is listable
// and watchable through the client, and the watch returns the terminal state
// with the deployment receipt.
func TestAsyncJobsOverHTTP(t *testing.T) {
	lo := leaf(t, "remote")
	q := admission.New(lo, admission.Options{})
	t.Cleanup(q.Close)
	srv := NewServer(lo, nil).WithAdmission(q)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := Dial("remote", "http://"+addr)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	job, err := cli.SubmitAsync(ctx, sg(t, "svc-async"))
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.ServiceID != "svc-async" {
		t.Fatalf("submitted job: %+v", job)
	}

	done, err := cli.WaitJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != admission.StateDeployed || done.Receipt == nil {
		t.Fatalf("watched job: %+v", done)
	}
	if done.Receipt.ServiceID != "svc-async" || len(done.Receipt.Placements) != 1 {
		t.Fatalf("receipt over the wire: %+v", done.Receipt)
	}
	if svcs, err := cli.ListServices(ctx); err != nil || len(svcs) != 1 {
		t.Fatalf("services after async deploy: %v %v", svcs, err)
	}

	// The job is queryable individually and in the listing.
	got, err := cli.Job(ctx, job.ID)
	if err != nil || got.State != admission.StateDeployed {
		t.Fatalf("job fetch: %+v %v", got, err)
	}
	jobs, err := cli.Jobs(ctx)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("jobs list: %+v %v", jobs, err)
	}
	if doc, err := cli.Stats(ctx); err != nil || doc.Admission == nil || doc.Admission.Deployed != 1 {
		t.Fatalf("admission stats: %+v %v", doc.Admission, err)
	}

	// Unknown jobs surface the typed ErrUnknownJob identity on fetch/watch
	// (the error envelope carries the code; pre-envelope servers degrade to
	// ErrUnknownService via the 404 fallback).
	if _, err := cli.Job(ctx, "job-999"); !errors.Is(err, admission.ErrUnknownJob) {
		t.Fatalf("unknown job fetch: %v", err)
	}
	if _, err := cli.WaitJob(ctx, "job-999"); !errors.Is(err, admission.ErrUnknownJob) {
		t.Fatalf("unknown job watch: %v", err)
	}

	// A failing graph lands in StateFailed with the error preserved.
	bad := nffg.NewBuilder("bad-async").
		SAP("sapA").SAP("sapB").
		NF("bad-nf", "quantum", 2, res(1, 64)).
		Chain("bad-async", 1, 0, "sapA", "bad-nf", "sapB").
		MustBuild()
	failJob, err := cli.SubmitAsync(ctx, bad)
	if err != nil {
		t.Fatal(err)
	}
	failDone, err := cli.WaitJob(ctx, failJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	if failDone.State != admission.StateFailed || failDone.Error == "" {
		t.Fatalf("failed job: %+v", failDone)
	}
}

// TestSyncInstallRidesAdmission: with a queue configured, plain synchronous
// POSTs go through it too.
func TestSyncInstallRidesAdmission(t *testing.T) {
	lo := leaf(t, "remote")
	q := admission.New(lo, admission.Options{})
	t.Cleanup(q.Close)
	srv := NewServer(lo, nil).WithAdmission(q)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := Dial("remote", "http://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Install(context.Background(), sg(t, "svc-sync")); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Deployed != 1 {
		t.Fatalf("sync install bypassed the queue: %+v", st)
	}
}

// TestAsyncModeWithoutQueue: ?mode=async without an admission queue is a
// clean 501, not a hang.
func TestAsyncModeWithoutQueue(t *testing.T) {
	_, cli := startPair(t)
	if _, err := cli.SubmitAsync(context.Background(), sg(t, "svc")); err == nil {
		t.Fatal("async submit should fail without a queue")
	}
}

// TestListErrorsSurface: ListServices and RemoteCapabilities report transport
// errors instead of swallowing them (the interface-shaped methods collapse to
// empty results).
func TestListErrorsSurface(t *testing.T) {
	lo := leaf(t, "remote")
	srv := NewServer(lo, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial("remote", "http://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := cli.ListServices(context.Background()); err == nil {
		t.Fatal("ListServices against a dead server should error")
	}
	if _, err := cli.RemoteCapabilities(context.Background()); err == nil {
		t.Fatal("RemoteCapabilities against a dead server should error")
	}
	if got := cli.Services(); got != nil {
		t.Fatalf("interface-shaped Services should collapse to nil: %v", got)
	}
}

func TestCapabilitiesOverHTTP(t *testing.T) {
	lo := leaf(t, "capdom")
	srv := NewServer(lo, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := Dial("capdom", "http://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	caps := cli.Capabilities()
	if len(caps) != 2 {
		t.Fatalf("caps: %v", caps)
	}
	if !slices.Contains(caps, domain.CapCompute) {
		t.Fatal("compute capability missing")
	}
}

// flakyWaitServer is a raw HTTP server whose /wait endpoint drops the first
// `drops` connections mid-poll (simulating a server/proxy-side long-poll
// timeout), then answers 200 with a terminal job.
func flakyWaitServer(t *testing.T, drops int) (addr string, polls *atomic.Int32) {
	t.Helper()
	polls = &atomic.Int32{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok")
	})
	mux.HandleFunc("GET "+unifyRoot+"/jobs/{id}/wait", func(w http.ResponseWriter, r *http.Request) {
		n := polls.Add(1)
		if int(n) <= drops {
			// Kill the connection without a response: the client sees a
			// transport error, not an HTTP status.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("response writer not hijackable")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
			return
		}
		_ = writeJSONTo(w, http.StatusOK, admission.Job{
			ID: r.PathValue("id"), ServiceID: "svc", State: admission.StateDeployed,
		})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String(), polls
}

// TestWaitJobRetriesServerDrop pins the long-poll fix: a connection dropped
// server-side mid-poll is retryable — WaitJob re-polls and returns the
// terminal job — instead of surfacing the transport error as terminal.
func TestWaitJobRetriesServerDrop(t *testing.T) {
	addr, polls := flakyWaitServer(t, 2)
	cli, err := Dial("remote", "http://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	job, err := cli.WaitJob(context.Background(), "job-1")
	if err != nil {
		t.Fatalf("WaitJob must survive dropped polls: %v", err)
	}
	if job.State != admission.StateDeployed {
		t.Fatalf("job: %+v", job)
	}
	if got := polls.Load(); got != 3 {
		t.Fatalf("polls: %d, want 3 (2 drops + 1 success)", got)
	}
}

// TestWaitJobGivesUpOnDeadServer: a server that keeps dropping connections
// exhausts the bounded retries and surfaces the transport error.
func TestWaitJobGivesUpOnDeadServer(t *testing.T) {
	addr, polls := flakyWaitServer(t, 1_000_000)
	cli, err := Dial("remote", "http://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cli.WaitJob(context.Background(), "job-1")
	if err == nil {
		t.Fatal("WaitJob must eventually give up on a dead server")
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("no context was canceled: %v", err)
	}
	if got := polls.Load(); got < 2 {
		t.Fatalf("WaitJob gave up without retrying: %d polls", got)
	}
}

// TestWaitJobContextCancel pins the other half of the fix: the CALLER's
// context ending is terminal and keeps its identity — WaitJob must not
// re-poll through it.
func TestWaitJobContextCancel(t *testing.T) {
	// A server that holds the poll open until the client goes away.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok")
	})
	mux.HandleFunc("GET "+unifyRoot+"/jobs/{id}/wait", func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })

	cli, err := Dial("remote", "http://"+ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = cli.WaitJob(ctx, "job-1")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation must keep context identity: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("WaitJob kept polling %v after cancellation", elapsed)
	}
}

// TestPipelineStatsOverHTTP: the consolidated document carries a sharded
// orchestrator's pipeline, read-cache, per-shard and admission counters end to
// end; a leaf reports southbound counters instead of a pipeline.
func TestPipelineStatsOverHTTP(t *testing.T) {
	ctx := context.Background()
	ro := core.NewResourceOrchestrator(core.Config{ID: "mdo"})
	for _, name := range []string{"east", "west"} {
		n, in, out := nffg.ID(name+"-n"), nffg.ID(name+"-in"), nffg.ID(name+"-out")
		sub := nffg.NewBuilder(name).BiSBiS(n, name, 4, res(16, 8192), "fw").SAP(in).SAP(out).
			Link("u1", in, "1", n, "1", 100, 1).Link("u2", n, "2", out, "1", 100, 1).MustBuild()
		lo, err := core.NewLocalOrchestrator(core.LocalConfig{ID: name, Substrate: sub})
		if err != nil {
			t.Fatal(err)
		}
		if err := ro.Attach(ctx, lo); err != nil {
			t.Fatal(err)
		}
	}
	q := admission.New(ro, admission.Options{})
	t.Cleanup(q.Close)
	srv := NewServer(ro, nil).WithAdmission(q)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := Dial("mdo", "http://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	g := nffg.NewBuilder("svc").SAP("east-in").SAP("east-out").NF("svc-nf", "fw", 2, res(2, 512)).
		Chain("svc", 1, 0, "east-in", "svc-nf", "east-out").MustBuild()
	g.NFs.Get("svc-nf").Host = "bisbis@east"
	if _, err := cli.Install(ctx, g); err != nil {
		t.Fatal(err)
	}
	// Two reads: the first fills the view cache, the second hits it.
	for i := 0; i < 2; i++ {
		if _, err := cli.View(ctx); err != nil {
			t.Fatal(err)
		}
	}

	doc, err := cli.Stats(ctx)
	if err != nil || doc.Pipeline == nil || doc.Admission == nil {
		t.Fatalf("stats: %+v %v", doc, err)
	}
	st := doc.Pipeline.Stats
	if doc.Pipeline.Layer != "mdo" || st.Installs != 1 || st.MapAttempts < 1 || st.Batches != 1 {
		t.Fatalf("pipeline counters: %+v", st)
	}
	if st.ViewCache.Misses == 0 || st.ViewCache.Hits == 0 {
		t.Fatalf("view cache counters: %+v", st.ViewCache)
	}
	sh := doc.Pipeline.Shards
	if len(sh) != 2 || sh[0].Shard != "east" || sh[1].Shard != "west" {
		t.Fatalf("shard stats: %+v", sh)
	}
	// The single-shard install committed on east only: west saw just its
	// attach merge.
	if sh[0].Commits <= sh[1].Commits || sh[0].Gen != sh[0].Commits || sh[1].Gen != sh[1].Commits {
		t.Fatalf("per-shard generations over the wire: %+v", sh)
	}
	a := doc.Admission
	if a.Deployed != 1 || a.Batches != 1 || a.Coalesced != 1 || a.Shards["east"].Batches == 0 {
		t.Fatalf("admission counters: %+v", a)
	}

	_, lcli := startPair(t)
	if _, err := lcli.Install(ctx, sg(t, "svc")); err != nil {
		t.Fatal(err)
	}
	ldoc, err := lcli.Stats(ctx)
	if err != nil || ldoc.Pipeline != nil || ldoc.Southbound == nil {
		t.Fatalf("leaf stats: %+v %v", ldoc, err)
	}
}

// TestTenantIdentityOverHTTP: the submission's tenant identity and priority
// survive the whole submit -> job -> stats round-trip over the wire (context
// meta -> X-Unify-* headers -> remote queue -> job JSON), and default sanely
// when absent.
func TestTenantIdentityOverHTTP(t *testing.T) {
	lo := leaf(t, "remote")
	q := admission.New(lo, admission.Options{})
	t.Cleanup(q.Close)
	srv := NewServer(lo, nil).WithAdmission(q)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := Dial("remote", "http://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Explicit meta on the call context.
	actx := unify.WithMeta(ctx, unify.RequestMeta{Tenant: "acme", Priority: unify.PriorityHigh})
	job, err := cli.SubmitAsync(actx, sg(t, "svc-acme"))
	if err != nil {
		t.Fatal(err)
	}
	if job.Tenant != "acme" || job.Priority != unify.PriorityHigh {
		t.Fatalf("submitted job meta: %+v", job)
	}
	done, err := cli.WaitJob(ctx, job.ID)
	if err != nil || done.State != admission.StateDeployed {
		t.Fatalf("job: %+v %v", done, err)
	}
	if done.Tenant != "acme" || done.Priority != unify.PriorityHigh {
		t.Fatalf("terminal job lost its meta: %+v", done)
	}
	if got, err := cli.Job(ctx, job.ID); err != nil || got.Tenant != "acme" {
		t.Fatalf("job fetch: %+v %v", got, err)
	}
	// The leaf has one SAP pair: clear it for the next submission.
	if err := cli.Remove(ctx, "svc-acme"); err != nil {
		t.Fatal(err)
	}

	// No meta at all: the submission lands in the default tenant.
	dj, err := cli.SubmitAsync(ctx, sg(t, "svc-plain"))
	if err != nil {
		t.Fatal(err)
	}
	if dj.Tenant != unify.DefaultTenant || dj.Priority != unify.PriorityNormal {
		t.Fatalf("default meta: %+v", dj)
	}
	if dd, err := cli.WaitJob(ctx, dj.ID); err != nil || dd.State != admission.StateDeployed {
		t.Fatalf("default-tenant job: %+v %v", dd, err)
	}
	if err := cli.Remove(ctx, "svc-plain"); err != nil {
		t.Fatal(err)
	}

	// Sync installs are attributed the same way.
	betaCtx := unify.WithMeta(ctx, unify.RequestMeta{Tenant: "beta"})
	if _, err := cli.Install(betaCtx, sg(t, "svc-beta")); err != nil {
		t.Fatal(err)
	}

	// Per-tenant accounting made the round trip too.
	doc, err := cli.Stats(ctx)
	if err != nil || doc.Admission == nil {
		t.Fatalf("stats: %+v %v", doc, err)
	}
	st := doc.Admission
	if st.Tenants["acme"].Deployed != 1 || st.Tenants["acme"].Submitted != 1 {
		t.Fatalf("acme stats over the wire: %+v", st.Tenants)
	}
	if st.Tenants[unify.DefaultTenant].Deployed != 1 {
		t.Fatalf("default-tenant stats: %+v", st.Tenants)
	}
	if st.Tenants["beta"].Deployed != 1 {
		t.Fatalf("beta (sync install) stats: %+v", st.Tenants)
	}

	// A bad priority header is a 400, not a silent default.
	bctx := unify.WithMeta(ctx, unify.RequestMeta{Priority: unify.Priority("urgent")})
	if _, err := cli.SubmitAsync(bctx, sg(t, "svc-bad")); err == nil {
		t.Fatal("bad priority must be rejected")
	}
}
