package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// slowProgrammer simulates device-programming latency (NETCONF round trips,
// VM boots). It honors context cancellation mid-wait and can be told to fail
// installs whose NF IDs carry a prefix.
type slowProgrammer struct {
	delay   time.Duration
	failPfx string
	commits int32
	mu      sync.Mutex
}

func (p *slowProgrammer) Commit(ctx context.Context, d *nffg.Delta, _ *nffg.NFFG) error {
	select {
	case <-time.After(p.delay):
	case <-ctx.Done():
		return ctx.Err()
	}
	p.mu.Lock()
	p.commits++
	p.mu.Unlock()
	if p.failPfx != "" {
		for _, nf := range d.AddNFs {
			if len(nf.ID) >= len(p.failPfx) && string(nf.ID[:len(p.failPfx)]) == p.failPfx {
				return errors.New("slowProgrammer: induced failure")
			}
		}
	}
	return nil
}

// lineRO builds n leaf domains in a line — sap1 - d0 - b0 - d1 - b1 ... -
// sap2 — each with the given programmer latency, under one resource
// orchestrator. Returns the RO and the leaves.
func lineRO(t testing.TB, n int, delay time.Duration, progs map[int]Programmer) (*ResourceOrchestrator, []*LocalOrchestrator) {
	t.Helper()
	return lineROCfg(t, n, delay, progs, Config{ID: "ro"})
}

// lineROWith is lineRO with an explicit orchestrator Config (and no
// per-domain programmer latency).
func lineROWith(t testing.TB, n int, cfg Config) (*ResourceOrchestrator, []*LocalOrchestrator) {
	t.Helper()
	return lineROCfg(t, n, 0, nil, cfg)
}

func lineROCfg(t testing.TB, n int, delay time.Duration, progs map[int]Programmer, cfg Config) (*ResourceOrchestrator, []*LocalOrchestrator) {
	t.Helper()
	var los []*LocalOrchestrator
	ro := NewResourceOrchestrator(cfg)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("d%d", i)
		left := nffg.ID(fmt.Sprintf("b%d", i-1))
		if i == 0 {
			left = "sap1"
		}
		right := nffg.ID(fmt.Sprintf("b%d", i))
		if i == n-1 {
			right = "sap2"
		}
		sub := nffg.NewBuilder(name).
			BiSBiS(nffg.ID(name+"-n"), name, 4, res(16, 8192), "fw", "dpi", "nat", "compress").
			SAP(left).SAP(right).
			Link("l", left, "1", nffg.ID(name+"-n"), "1", 1000, 1).
			Link("r", nffg.ID(name+"-n"), "2", right, "1", 1000, 1).
			MustBuild()
		prog := progs[i]
		if prog == nil {
			prog = &slowProgrammer{delay: delay}
		}
		lo, err := NewLocalOrchestrator(LocalConfig{ID: name, Substrate: sub, Programmer: prog})
		if err != nil {
			t.Fatal(err)
		}
		if err := ro.Attach(context.Background(), lo); err != nil {
			t.Fatal(err)
		}
		los = append(los, lo)
	}
	return ro, los
}

// spanReq builds a chain sap1 -> nf@d0 -> nf@d1 -> ... -> sap2 pinning one NF
// into every domain, so one install fans out to every child.
func spanReq(t testing.TB, id string, n int) *nffg.NFFG {
	t.Helper()
	types := []string{"fw", "dpi", "nat", "compress"}
	b := nffg.NewBuilder(id).SAP("sap1").SAP("sap2")
	nodes := []nffg.ID{"sap1"}
	for i := 0; i < n; i++ {
		nf := nffg.ID(fmt.Sprintf("%s-nf%d", id, i))
		b.NF(nf, types[i%len(types)], 2, res(2, 512))
		nodes = append(nodes, nf)
	}
	nodes = append(nodes, "sap2")
	b.Chain(id, 5, 0, nodes...)
	g := b.MustBuild()
	for i := 0; i < n; i++ {
		g.NFs.Get(nffg.ID(fmt.Sprintf("%s-nf%d", id, i))).Host = nffg.ID(fmt.Sprintf("bisbis@d%d", i))
	}
	return g
}

// TestParallelChildDeploy verifies the tentpole claim: with an artificial
// child-install latency over 4 domains, a single install that spans all four
// completes in ~1 child latency, not 4x — the fan-out is parallel.
func TestParallelChildDeploy(t *testing.T) {
	const domains = 4
	const delay = 50 * time.Millisecond
	ro, los := lineRO(t, domains, delay, nil)

	start := time.Now()
	receipt, err := ro.Install(context.Background(), spanReq(t, "span", domains))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(receipt.Children) != domains {
		t.Fatalf("expected %d child receipts, got %d", domains, len(receipt.Children))
	}
	// Sequential deployment would take >= 4*delay = 200ms. Allow generous
	// headroom over one delay for mapping and scheduling noise.
	if elapsed >= 3*delay {
		t.Fatalf("install took %v; children deployed sequentially? (1 child latency = %v)", elapsed, delay)
	}
	for _, lo := range los {
		if len(lo.Services()) != 1 {
			t.Fatalf("child %s has %d services", lo.ID(), len(lo.Services()))
		}
	}

	// Removal fans out in parallel too.
	start = time.Now()
	if err := ro.Remove(context.Background(), "span"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= 3*delay {
		t.Fatalf("remove took %v; teardown fan-out not parallel", elapsed)
	}
	for _, lo := range los {
		if len(lo.Services()) != 0 {
			t.Fatalf("child %s not cleaned up", lo.ID())
		}
	}
}

// TestConcurrentIndependentInstalls runs N independent services (each pinned
// into its own domain) from N goroutines. All must succeed — losers of the
// optimistic commit race re-map against the fresh DoV generation — and the
// batch must complete in far less than the sum of child latencies.
func TestConcurrentIndependentInstalls(t *testing.T) {
	const domains = 4
	const delay = 50 * time.Millisecond
	ro, los := lineRO(t, domains, delay, nil)
	baseGen := ro.Generation()

	var wg sync.WaitGroup
	errs := make([]error, domains)
	start := time.Now()
	for i := 0; i < domains; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A chain living entirely inside domain i: its SAP endpoints are
			// the domain's border/user SAPs.
			left, right := fmt.Sprintf("b%d", i-1), fmt.Sprintf("b%d", i)
			if i == 0 {
				left = "sap1"
			}
			if i == domains-1 {
				right = "sap2"
			}
			id := fmt.Sprintf("svc%d", i)
			req := chainReq(t, id, nffg.ID(left), nffg.ID(right), "fw")
			req.NFs.Get(nffg.ID(id + "-nf")).Host = nffg.ID(fmt.Sprintf("bisbis@d%d", i))
			_, errs[i] = ro.Install(context.Background(), req)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
	}
	// Serialized installs (the old single-mutex path) would need >= 4*delay.
	if elapsed >= 3*delay {
		t.Fatalf("batch took %v; installs serialized (1 child latency = %v)", elapsed, delay)
	}
	// Every commit bumped the generation exactly once: the losers re-mapped
	// instead of clobbering each other's reservations.
	if got := ro.Generation() - baseGen; got != domains {
		t.Fatalf("generation advanced by %d, want %d", got, domains)
	}
	if got := len(ro.Services()); got != domains {
		t.Fatalf("RO tracks %d services, want %d", got, domains)
	}
	for i, lo := range los {
		if len(lo.Services()) != 1 {
			t.Fatalf("domain %d has %d services", i, len(lo.Services()))
		}
	}
}

// TestGenerationConflictRetry forces commit races: many goroutines install
// services that all map successfully against the same initial snapshot.
// Every loser must re-plan on the fresh generation and eventually land —
// no lost updates, no double-booked resources.
func TestGenerationConflictRetry(t *testing.T) {
	// No artificial latency: maximize commit contention.
	const workers = 6
	ro, _ := lineRO(t, 2, 0, nil)
	baseGen := ro.Generation()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("g%d", w)
			req := chainReq(t, id, "sap1", "b0", "fw")
			req.NFs.Get(nffg.ID(id + "-nf")).Host = "bisbis@d0"
			// Distinct flow destinations per service: route odd workers the
			// other way so classifiers do not conflict.
			if w%2 == 1 {
				req = chainReq(t, id, "b0", "sap1", "nat")
				req.NFs.Get(nffg.ID(id + "-nf")).Host = "bisbis@d0"
			}
			_, errs[w] = ro.Install(context.Background(), req)
		}(w)
	}
	wg.Wait()
	accepted := 0
	for _, err := range errs {
		if err == nil {
			accepted++
		} else if !errors.Is(err, unify.ErrRejected) && !errors.Is(err, unify.ErrBusy) {
			t.Fatalf("unexpected error kind: %v", err)
		}
	}
	// One service per direction holds the untagged SAP ingress classifier;
	// everyone else must be rejected on the re-mapped (fresh) snapshot.
	if accepted != 2 {
		t.Fatalf("accepted %d, want 2", accepted)
	}
	if got := ro.Generation() - baseGen; got != 2 {
		t.Fatalf("generation advanced by %d, want 2 (one per committed install)", got)
	}
}

// TestRollbackOnMidFanoutFailure deploys across three slow domains where the
// middle one fails after its programming delay: the siblings that already
// deployed must be rolled back (in parallel) and the DoV reservation
// released, while an unrelated concurrent install on a healthy domain
// proceeds untouched.
func TestRollbackOnMidFanoutFailure(t *testing.T) {
	const delay = 30 * time.Millisecond
	ro, los := lineRO(t, 3, delay, map[int]Programmer{
		1: &slowProgrammer{delay: delay, failPfx: "bad"},
	})
	dovBefore := mustDoV(t, ro)

	var wg sync.WaitGroup
	var goodErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := chainReq(t, "good", "sap1", "b0", "fw")
		req.NFs.Get("good-nf").Host = "bisbis@d0"
		_, goodErr = ro.Install(context.Background(), req)
	}()

	badReq := spanReq(t, "bad", 3)
	_, err := ro.Install(context.Background(), badReq)
	wg.Wait()
	if !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("mid-fan-out failure must reject: %v", err)
	}
	if goodErr != nil {
		t.Fatalf("unrelated concurrent install failed: %v", goodErr)
	}
	for i, lo := range los {
		want := 0
		if i == 0 {
			want = 1 // the "good" service lives on d0
		}
		if got := len(lo.Services()); got != want {
			t.Fatalf("domain %d tracks %d services, want %d", i, got, want)
		}
	}
	if got := ro.Services(); len(got) != 1 || got[0] != "good" {
		t.Fatalf("RO services after rollback: %v", got)
	}
	// The failed install's reservation is fully released: removing the good
	// service must restore the initial DoV resource-for-resource.
	if err := ro.Remove(context.Background(), "good"); err != nil {
		t.Fatal(err)
	}
	dovAfter := mustDoV(t, ro)
	for _, id := range dovBefore.InfraIDs() {
		before, _ := dovBefore.AvailableResources(id)
		after, _ := dovAfter.AvailableResources(id)
		if before != after {
			t.Fatalf("capacity leak on %s: %+v != %+v", id, before, after)
		}
	}
	if dovAfter.NFs.Len() != 0 {
		t.Fatalf("NFs leaked into DoV: %v", dovAfter.NFIDs())
	}
}

// TestInstallCancellation cancels the northbound context while children are
// programming: the install must fail with the context error and leave no
// partial state anywhere in the hierarchy.
func TestInstallCancellation(t *testing.T) {
	const delay = 200 * time.Millisecond
	ro, los := lineRO(t, 4, delay, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(delay / 8)
		cancel()
	}()
	_, err := ro.Install(ctx, spanReq(t, "c", 4))
	if err == nil {
		t.Fatal("canceled install must fail")
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("unexpected error: %v", err)
	}
	for _, lo := range los {
		if len(lo.Services()) != 0 {
			t.Fatalf("child %s kept state after cancellation", lo.ID())
		}
	}
	if len(ro.Services()) != 0 {
		t.Fatal("RO kept state after cancellation")
	}
	// The stack stays usable: the same request succeeds afterwards.
	if _, err := ro.Install(context.Background(), spanReq(t, "c", 4)); err != nil {
		t.Fatalf("post-cancellation install: %v", err)
	}
}

// TestRemoveWhileRemoving verifies the in-flight exclusion: a second Remove
// racing a slow teardown gets unify.ErrBusy (or ErrUnknownService if the
// first already finished), never a double teardown.
func TestRemoveWhileRemoving(t *testing.T) {
	const delay = 100 * time.Millisecond
	ro, _ := lineRO(t, 2, delay, nil)
	req := spanReq(t, "twice", 2)
	if _, err := ro.Install(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ro.Remove(context.Background(), "twice") }()
	time.Sleep(delay / 4) // let the first Remove enter its fan-out
	err2 := ro.Remove(context.Background(), "twice")
	if !errors.Is(err2, unify.ErrBusy) && !errors.Is(err2, unify.ErrUnknownService) {
		t.Fatalf("concurrent remove: %v", err2)
	}
	if err := <-done; err != nil {
		t.Fatalf("first remove: %v", err)
	}
	if len(ro.Services()) != 0 {
		t.Fatal("service not removed")
	}
}

// TestViewsRunOutsideLock verifies View never blocks behind a slow install:
// with children programming for `delay`, a concurrent View must return
// quickly from the immutable snapshot.
func TestViewsRunOutsideLock(t *testing.T) {
	const delay = 200 * time.Millisecond
	ro, _ := lineRO(t, 2, delay, nil)
	installing := make(chan struct{})
	go func() {
		close(installing)
		_, _ = ro.Install(context.Background(), spanReq(t, "slow", 2))
	}()
	<-installing
	time.Sleep(delay / 8) // install is now inside the child fan-out
	start := time.Now()
	if _, err := ro.View(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > delay/2 {
		t.Fatalf("View blocked %v behind an in-flight install", elapsed)
	}
}

// TestRemoveRetryAfterChildTeardownFailure pins the Remove contract: when a
// child teardown fails, the service stays tracked (and the DoV reservation
// held) so Remove can be retried; the retry tolerates children that were
// already torn down in the first attempt.
func TestRemoveRetryAfterChildTeardownFailure(t *testing.T) {
	flaky := &teardownFailingProgrammer{}
	flaky.failDeletes.Store(1)
	ro, los := lineRO(t, 2, 0, map[int]Programmer{1: flaky})
	if _, err := ro.Install(context.Background(), spanReq(t, "svc", 2)); err != nil {
		t.Fatal(err)
	}
	dovDeployed := mustDoV(t, ro)

	if err := ro.Remove(context.Background(), "svc"); err == nil {
		t.Fatal("first remove must report the child teardown failure")
	}
	if got := ro.Services(); len(got) != 1 || got[0] != "svc" {
		t.Fatalf("service must stay removable after failed teardown: %v", got)
	}
	// The reservation is still held: the DoV must not have been released.
	after := mustDoV(t, ro)
	for _, id := range dovDeployed.InfraIDs() {
		b, _ := dovDeployed.AvailableResources(id)
		a, _ := after.AvailableResources(id)
		if b != a {
			t.Fatalf("DoV released despite failed teardown on %s", id)
		}
	}
	// d0 tore down, d1 kept its sub-service.
	if len(los[0].Services()) != 0 || len(los[1].Services()) != 1 {
		t.Fatalf("partial teardown state: d0=%v d1=%v", los[0].Services(), los[1].Services())
	}

	// Retry succeeds: d0's already-gone sub-service is tolerated.
	if err := ro.Remove(context.Background(), "svc"); err != nil {
		t.Fatalf("retry remove: %v", err)
	}
	if len(ro.Services())+len(los[0].Services())+len(los[1].Services()) != 0 {
		t.Fatal("state left after retried removal")
	}
}

// TestInstallCancellationKeepsContextIdentity verifies that a northbound
// cancellation surfaces as the context error, not as a merit-based
// rejection.
func TestInstallCancellationKeepsContextIdentity(t *testing.T) {
	const delay = 200 * time.Millisecond
	ro, _ := lineRO(t, 2, delay, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(delay / 8)
		cancel()
	}()
	_, err := ro.Install(ctx, spanReq(t, "c", 2))
	if err == nil {
		t.Fatal("canceled install must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation must keep context identity, got: %v", err)
	}
	if errors.Is(err, unify.ErrRejected) {
		t.Fatalf("cancellation must not read as rejection: %v", err)
	}
}
