package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// readAll drains and closes a response body.
func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// waitETag polls until the replica has converged onto the given writer ETag.
func waitETag(t *testing.T, rep *Replica, etag string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if rep.ViewVersion().ETag == etag {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("replica stuck at %q, writer at %q", rep.ViewVersion().ETag, etag)
}

// encodeJSON renders a view for byte-level comparison.
func encodeJSON(t *testing.T, v *nffg.NFFG) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := v.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConditionalViewOverHTTP is the e2e ETag round trip of the read plane:
// first fetch 200 with validators, revalidation 304 from the client cache, a
// commit moves the ETag and refills the cache, then 304s resume.
func TestConditionalViewOverHTTP(t *testing.T) {
	ctx := context.Background()
	_, cli := startPair(t)

	v1, ver1, err := cli.ViewVersioned(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ver1.ETag == "" || !v1.Sealed() {
		t.Fatalf("first fetch must carry a validator and seal the view: %+v", ver1)
	}
	v2, err := cli.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v1 {
		t.Fatal("revalidation must serve the SAME sealed snapshot (304 path)")
	}
	if st := cli.ViewCacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats after fetch+revalidate: %+v", st)
	}

	if _, err := cli.Install(ctx, sg(t, "svc")); err != nil {
		t.Fatal(err)
	}
	v3, ver3, err := cli.ViewVersioned(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ver3.ETag == ver1.ETag || v3 == v1 {
		t.Fatal("commit must invalidate the remote validator")
	}
	if ver3.Generation <= ver1.Generation {
		t.Fatalf("generation must advance across the commit: %d -> %d", ver1.Generation, ver3.Generation)
	}
	if st := cli.ViewCacheStats(); st.Misses != 2 {
		t.Fatalf("post-commit fetch must be a miss: %+v", st)
	}
	if v4, err := cli.View(ctx); err != nil || v4 != v3 {
		t.Fatalf("cache must hold the new version: %v", err)
	}

	// The raw wire shape: ETag + generation headers on 200, empty-body 304
	// on If-None-Match, full 200 on a stale validator.
	resp, err := http.Get(cli.base + unifyRoot + "/view")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" || resp.Header.Get(GenerationHeader) == "" {
		t.Fatalf("plain GET: %d etag=%q gen=%q", resp.StatusCode, etag, resp.Header.Get(GenerationHeader))
	}
	if len(body) == 0 {
		t.Fatal("plain GET must carry the view")
	}
	for _, inm := range []string{etag, "*", `"stale", ` + etag} {
		req, _ := http.NewRequest(http.MethodGet, cli.base+unifyRoot+"/view", nil)
		req.Header.Set("If-None-Match", inm)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(resp)
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("If-None-Match %q: status=%d body=%d bytes", inm, resp.StatusCode, len(body))
		}
		if resp.Header.Get("ETag") != etag {
			t.Fatalf("304 must restate the validator: %q", resp.Header.Get("ETag"))
		}
	}
	req, _ := http.NewRequest(http.MethodGet, cli.base+unifyRoot+"/view", nil)
	req.Header.Set("If-None-Match", `"deadbeef"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = readAll(resp)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("stale validator must refetch in full: %d", resp.StatusCode)
	}
}

// TestWatchStreamResume: a watcher that was away while commits landed
// resumes from its cursor and sees the missed state exactly once — the next
// poll heartbeats instead of replaying it again.
func TestWatchStreamResume(t *testing.T) {
	ctx := context.Background()
	_, cli := startPair(t)

	_, ver, err := cli.ViewVersioned(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cursor := ver.Generation

	// Three commits land while nobody is watching (install/remove keeps
	// capacity free; each bumps the version).
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("svc%d", i)
		if _, err := cli.Install(ctx, sg(t, id)); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if err := cli.Remove(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Resume: the missed change is delivered immediately, with the full
	// sealed view and the service list of the same cut.
	ev, changed, err := cli.WatchOnce(ctx, cursor, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !changed || ev.Heartbeat || ev.View == nil {
		t.Fatalf("resume must replay the missed change: %+v changed=%v", ev, changed)
	}
	if ev.Generation <= cursor {
		t.Fatalf("event generation %d must exceed cursor %d", ev.Generation, cursor)
	}
	if !ev.View.Sealed() {
		t.Fatal("watch views must arrive sealed")
	}
	if len(ev.Services) != 1 || ev.Services[0] != "svc2" {
		t.Fatalf("services at the cut: %v", ev.Services)
	}

	// Exactly once: re-polling from the delivered cursor heartbeats.
	ev2, changed2, err := cli.WatchOnce(ctx, ev.Generation, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if changed2 || !ev2.Heartbeat || ev2.View != nil {
		t.Fatalf("no further change: want heartbeat, got %+v changed=%v", ev2, changed2)
	}
	if ev2.ETag != ev.ETag || ev2.Generation < ev.Generation {
		t.Fatalf("heartbeat must restate the current version: %+v vs %+v", ev2, ev)
	}

	// A watcher blocked mid-poll is woken by the next commit.
	type watchResult struct {
		ev      WatchEvent
		changed bool
		err     error
	}
	done := make(chan watchResult, 1)
	go func() {
		ev, changed, err := cli.WatchOnce(context.Background(), ev.Generation, 5*time.Second)
		done <- watchResult{ev, changed, err}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := cli.Remove(ctx, "svc2"); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !r.changed || r.ev.Generation <= ev.Generation || len(r.ev.Services) != 0 {
			t.Fatalf("live wakeup: %+v changed=%v", r.ev, r.changed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch missed the commit wakeup")
	}
}

// TestErrorEnvelopeOnTheWire pins the raw error shape every handler speaks:
// {"error":{"code","message"}} with a machine-readable code.
func TestErrorEnvelopeOnTheWire(t *testing.T) {
	_, cli := startPair(t)

	resp, err := http.Post(cli.base+unifyRoot+"/services", "application/json", bytes.NewBufferString("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeBadRequest || env.Error.Message == "" {
		t.Fatalf("bad request envelope: %d %+v", resp.StatusCode, env)
	}

	req, _ := http.NewRequest(http.MethodDelete, cli.base+unifyRoot+"/services/nope", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	env = ErrorEnvelope{}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != CodeUnknownService {
		t.Fatalf("unknown service envelope: %d %+v", resp.StatusCode, env)
	}

	// And the client decodes codes back to the sentinels.
	if err := cli.Remove(context.Background(), "nope"); !errors.Is(err, unify.ErrUnknownService) {
		t.Fatalf("client mapping: %v", err)
	}
}

// TestErrorTableRoundTrip: every row of the error taxonomy round-trips —
// errorStatus classifies a wrapped sentinel to the row's status and code, and
// codeError maps the code back onto an error that is the same sentinel.
func TestErrorTableRoundTrip(t *testing.T) {
	for _, row := range errorTable {
		status, code := errorStatus(fmt.Errorf("wrapped: %w", row.sentinel))
		if status != row.status || code != row.code {
			t.Errorf("%v: got (%d, %s), want (%d, %s)", row.sentinel, status, code, row.status, row.code)
		}
		if err, ok := codeError(code, "msg"); !ok || !errors.Is(err, row.sentinel) {
			t.Errorf("%s: codeError = %v, %v", code, err, ok)
		}
	}
}

// TestVersionedMounts: /unify routes are served under /v1 only — the
// unversioned path is a 404 — every response stamps X-Unify-API-Version, and
// healthz names the version.
func TestVersionedMounts(t *testing.T) {
	ctx := context.Background()
	_, cli := startPair(t)

	for p, want := range map[string]int{"/v1/unify/view": http.StatusOK, "/unify/view": http.StatusNotFound} {
		resp, err := http.Get(cli.base + p)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(resp)
		if resp.StatusCode != want || len(body) == 0 {
			t.Fatalf("%s: %d, want %d", p, resp.StatusCode, want)
		}
		if got := resp.Header.Get(VersionHeader); got != APIVersion {
			t.Fatalf("%s: version header %q", p, got)
		}
	}

	// Errors carry the header too (the middleware wraps everything).
	resp, err := http.Get(cli.base + "/v1/unify/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	readAll(resp)
	if resp.Header.Get(VersionHeader) != APIVersion {
		t.Fatal("error responses must be versioned")
	}
	// The mux's plain-text 404 for an unmounted route maps through the
	// status fallback (unifyctl domains prints "fleet: n/a" on it).
	if _, err := cli.FleetStatus(ctx); !errors.Is(err, unify.ErrUnknownService) {
		t.Fatalf("unmounted fleet route: %v", err)
	}

	h, err := cli.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.APIVersion != APIVersion {
		t.Fatalf("healthz api_version: %q", h.APIVersion)
	}
}

// TestConsolidatedStatsOverHTTP: one round trip returns pipeline, shard and
// view-version state.
func TestConsolidatedStatsOverHTTP(t *testing.T) {
	ctx := context.Background()
	ro := core.NewResourceOrchestrator(core.Config{ID: "mdo"})
	if err := ro.Attach(ctx, leaf(t, "d0")); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ro, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := Dial("mdo", "http://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Install(ctx, sg(t, "svc")); err != nil {
		t.Fatal(err)
	}

	doc, err := cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Layer != "mdo" || doc.APIVersion != APIVersion || doc.ETag == "" || doc.Generation == 0 {
		t.Fatalf("stats header: %+v", doc)
	}
	if doc.Pipeline == nil || doc.Pipeline.Stats.Installs != 1 || len(doc.Pipeline.Shards) != 1 {
		t.Fatalf("pipeline section: %+v", doc.Pipeline)
	}
	if doc.Replica != nil {
		t.Fatal("a writer has no replica section")
	}
}

// TestReplicaFollowsWriter: a replica converges onto the writer's exact view
// bytes at the same generation vector, serves reads locally, and refuses (or
// proxies) writes.
func TestReplicaFollowsWriter(t *testing.T) {
	ctx := context.Background()
	_, wcli := startPair(t)

	rep := NewReplica("replica", wcli, WithWatchWindow(200*time.Millisecond))
	rep.Start(context.Background())
	t.Cleanup(rep.Stop)

	_, wver, err := wcli.ViewVersioned(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitETag(t, rep, wver.ETag)

	// A commit on the writer propagates; the replica's view is byte-identical
	// at the same version.
	if _, err := wcli.Install(ctx, sg(t, "svc")); err != nil {
		t.Fatal(err)
	}
	wview, wver2, err := wcli.ViewVersioned(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitETag(t, rep, wver2.ETag)
	rview, rver, err := rep.VersionedView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rver.ETag != wver2.ETag {
		t.Fatalf("etag mismatch: replica %q writer %q", rver.ETag, wver2.ETag)
	}
	if !bytes.Equal(encodeJSON(t, rview), encodeJSON(t, wview)) {
		t.Fatal("replica view must be byte-identical to the writer's at the same generation")
	}
	if got := rep.Services(); len(got) != 1 || got[0] != "svc" {
		t.Fatalf("replica services: %v", got)
	}

	// Serve the replica over HTTP: reads work, writes answer 503 + Location
	// pointing at the writer, and the client maps the code to ErrReadOnly.
	rsrv := NewServer(rep, nil).WithReplica(rep)
	raddr, err := rsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rsrv.Close)
	rcli, err := Dial("replica", "http://"+raddr)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := rcli.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeJSON(t, rv), encodeJSON(t, wview)) {
		t.Fatal("replica-served view differs from the writer's")
	}
	if _, err := rcli.Install(ctx, sg(t, "other")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("replica install: %v", err)
	}
	var buf bytes.Buffer
	if err := sg(t, "other").EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+raddr+unifyRoot+"/services", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	readAll(resp)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Location") != wcli.base {
		t.Fatalf("write refusal: %d Location=%q want %q", resp.StatusCode, resp.Header.Get("Location"), wcli.base)
	}
	if rep.Stats().WritesRefused == 0 {
		t.Fatal("refusals must be counted")
	}

	// Health on the replica carries the sync state.
	h, err := rcli.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Replica == nil || !h.Replica.Synced || h.Replica.Writer != wcli.base {
		t.Fatalf("replica health: %+v", h.Replica)
	}

	// Proxy mode forwards the write to the writer instead. Free the chain's
	// flowspace first: the proxied service reuses svc's SAP pair.
	if err := wcli.Remove(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	_, wver3, err := wcli.ViewVersioned(ctx)
	if err != nil {
		t.Fatal(err)
	}
	prep := NewReplica("proxy-replica", wcli, ProxyWrites(), WithWatchWindow(200*time.Millisecond))
	prep.Start(context.Background())
	t.Cleanup(prep.Stop)
	waitETag(t, prep, wver3.ETag)
	if _, err := prep.Install(ctx, sg(t, "via-proxy")); err != nil {
		t.Fatal(err)
	}
	if err := prep.Remove(ctx, "via-proxy"); err != nil {
		t.Fatal(err)
	}
	if st := prep.Stats(); st.WritesProxied != 2 {
		t.Fatalf("proxied writes: %+v", st)
	}
}

// TestReplicaFollowsWriterRestart: a replica behind a proxy follows writer A
// to a generation above 1, then the proxy switches to a fresh writer B whose
// generation is lower. The replica's cursor names a generation B has not
// reached; the watch must answer at once with B's view instead of waiting
// for B to catch up, and the replica must converge on B's ETag.
func TestReplicaFollowsWriterRestart(t *testing.T) {
	ctx := context.Background()
	_, acli := startPair(t)
	_, bcli := startPair(t)
	var target atomic.Pointer[url.URL]
	aURL, err := url.Parse(acli.base)
	if err != nil {
		t.Fatal(err)
	}
	target.Store(aURL)
	proxy := httptest.NewServer(&httputil.ReverseProxy{Rewrite: func(r *httputil.ProxyRequest) {
		r.SetURL(target.Load())
	}})
	t.Cleanup(proxy.Close)
	pcli, err := Dial("writer", proxy.URL)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica("replica", pcli, WithWatchWindow(200*time.Millisecond))
	rep.Start(ctx)
	t.Cleanup(rep.Stop)

	// Writer A commits up to generation 9.
	for i := 0; ; i++ {
		_, ver, err := acli.ViewVersioned(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ver.Generation >= 9 {
			waitETag(t, rep, ver.ETag)
			break
		}
		id := fmt.Sprintf("a%d", i)
		if _, err := acli.Install(ctx, sg(t, id)); err != nil {
			t.Fatal(err)
		}
		if err := acli.Remove(ctx, id); err != nil {
			t.Fatal(err)
		}
	}

	// Writer B is fresh: one commit, generation 1.
	if _, err := bcli.Install(ctx, sg(t, "b")); err != nil {
		t.Fatal(err)
	}
	_, bver, err := bcli.ViewVersioned(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bver.Generation >= rep.ViewVersion().Generation {
		t.Fatalf("writer B at generation %d must be behind the replica's %d", bver.Generation, rep.ViewVersion().Generation)
	}
	bURL, err := url.Parse(bcli.base)
	if err != nil {
		t.Fatal(err)
	}
	target.Store(bURL)
	waitETag(t, rep, bver.ETag)
	if got := rep.Services(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("replica services after the switch: %v", got)
	}
}

// TestReplicaConsistentUnderCommitStorm hammers the writer with installs and
// removes while readers hit the replica concurrently: every read must see a
// sealed view whose version never moves backwards, and after the storm the
// replica converges byte-identically. Run with -race.
func TestReplicaConsistentUnderCommitStorm(t *testing.T) {
	ctx := context.Background()
	_, wcli := startPair(t)
	rep := NewReplica("replica", wcli, WithWatchWindow(100*time.Millisecond))
	rep.Start(context.Background())
	t.Cleanup(rep.Stop)
	if _, ver, err := wcli.ViewVersioned(ctx); err == nil {
		waitETag(t, rep, ver.ETag)
	}

	const commits = 15
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				view, ver, err := rep.VersionedView(ctx)
				if err != nil {
					continue // resync window
				}
				if !view.Sealed() {
					t.Error("replica served an unsealed view")
					return
				}
				if ver.Generation < last {
					t.Errorf("replica version moved backwards: %d -> %d", last, ver.Generation)
					return
				}
				last = ver.Generation
			}
		}()
	}
	for i := 0; i < commits; i++ {
		id := fmt.Sprintf("storm%d", i)
		if _, err := wcli.Install(ctx, sg(t, id)); err != nil {
			t.Fatal(err)
		}
		if err := wcli.Remove(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	wview, wver, err := wcli.ViewVersioned(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitETag(t, rep, wver.ETag)
	rview, err := rep.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeJSON(t, rview), encodeJSON(t, wview)) {
		t.Fatal("post-storm views diverged")
	}
	st := rep.Stats()
	if !st.Synced || st.Events == 0 {
		t.Fatalf("replica stats after storm: %+v", st)
	}
}
