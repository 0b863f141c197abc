package admission

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// stubLayer is a scripted unify.Layer + BatchInstaller: it records the
// batches it receives, optionally blocks until gate is closed (signalling
// entry on entered), and fails configured request IDs.
type stubLayer struct {
	gate    chan struct{} // non-nil: InstallBatch waits for close(gate)
	entered chan struct{} // buffered: signaled at each InstallBatch entry
	fail    map[string]error

	mu      sync.Mutex
	batches [][]string
	singles []string // per-request Install calls (fallback path)
	removed []string
}

func (s *stubLayer) ID() string { return "stub" }
func (s *stubLayer) View(context.Context) (*nffg.NFFG, error) {
	return nffg.New("stub-view"), nil
}
func (s *stubLayer) Remove(_ context.Context, id string) error {
	s.mu.Lock()
	s.removed = append(s.removed, id)
	s.mu.Unlock()
	return nil
}
func (s *stubLayer) Services() []string { return nil }

func (s *stubLayer) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	s.mu.Lock()
	s.singles = append(s.singles, req.ID)
	s.mu.Unlock()
	if err := s.fail[req.ID]; err != nil {
		return nil, err
	}
	return &unify.Receipt{ServiceID: req.ID}, nil
}

func (s *stubLayer) InstallBatch(ctx context.Context, reqs []*nffg.NFFG, obs unify.BatchObserver) []unify.BatchOutcome {
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
		}
	}
	ids := make([]string, len(reqs))
	for i, r := range reqs {
		ids[i] = r.ID
	}
	s.mu.Lock()
	s.batches = append(s.batches, ids)
	s.mu.Unlock()
	out := make([]unify.BatchOutcome, len(reqs))
	for i, r := range reqs {
		out[i].Attempts = 1
		if err := s.fail[r.ID]; err != nil {
			out[i].Err = err
		} else {
			if obs.Admitted != nil {
				obs.Admitted(i)
			}
			out[i].Receipt = &unify.Receipt{ServiceID: r.ID}
		}
		if obs.Done != nil {
			obs.Done(i, out[i])
		}
	}
	return out
}

func req(id string) *nffg.NFFG { return nffg.New(id) }

// TestCoalescing: while the dispatcher is stuck in the first batch,
// concurrently-arriving submissions pile up and ride the NEXT batch together
// — one InstallBatch call for all of them.
func TestCoalescing(t *testing.T) {
	stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	q := New(stub, Options{})
	defer q.Close()

	first, err := q.Submit(context.Background(), req("first"))
	if err != nil {
		t.Fatal(err)
	}
	<-stub.entered // dispatcher is now blocked inside batch 1

	const n = 8
	var followers []Job
	for i := 0; i < n; i++ {
		j, err := q.Submit(context.Background(), req(fmt.Sprintf("svc%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		followers = append(followers, j)
	}
	if st := q.Stats(); st.Depth != n {
		t.Fatalf("queue depth: %d, want %d", st.Depth, n)
	}
	close(stub.gate)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := q.Wait(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	for _, j := range followers {
		done, err := q.Wait(ctx, j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.State != StateDeployed {
			t.Fatalf("job %s: %s (%s)", done.ID, done.State, done.Error)
		}
		if done.Batch != n {
			t.Fatalf("job %s batch size: %d, want %d", done.ID, done.Batch, n)
		}
	}
	stub.mu.Lock()
	defer stub.mu.Unlock()
	if len(stub.batches) != 2 {
		t.Fatalf("batches: %v", stub.batches)
	}
	if len(stub.batches[0]) != 1 || len(stub.batches[1]) != n {
		t.Fatalf("batch sizes: %d then %d, want 1 then %d", len(stub.batches[0]), len(stub.batches[1]), n)
	}
}

// TestPartialFailureIsolation: one failing request in a coalesced batch fails
// alone; its peers deploy.
func TestPartialFailureIsolation(t *testing.T) {
	boom := fmt.Errorf("%w: induced", unify.ErrRejected)
	stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16), fail: map[string]error{"lemon": boom}}
	q := New(stub, Options{})
	defer q.Close()

	blocker, _ := q.Submit(context.Background(), req("blocker"))
	<-stub.entered
	good1, _ := q.Submit(context.Background(), req("good1"))
	lemon, _ := q.Submit(context.Background(), req("lemon"))
	good2, _ := q.Submit(context.Background(), req("good2"))
	close(stub.gate)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, id := range []string{blocker.ID, good1.ID, good2.ID} {
		done, err := q.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if done.State != StateDeployed {
			t.Fatalf("job %s: %s (%s)", id, done.State, done.Error)
		}
	}
	done, err := q.Wait(ctx, lemon.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateFailed || done.Error == "" {
		t.Fatalf("lemon: %s (%q)", done.State, done.Error)
	}
}

// TestJobStateTransitions walks one job through
// queued→mapping→deploying→deployed, checking the observable snapshots and
// timestamps along the way.
func TestJobStateTransitions(t *testing.T) {
	stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	q := New(stub, Options{})
	defer q.Close()

	j, err := q.Submit(context.Background(), req("svc"))
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || j.Submitted.IsZero() {
		t.Fatalf("fresh job: %+v", j)
	}
	<-stub.entered // dispatcher holds the job inside InstallBatch
	mid, err := q.Job(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.State != StateMapping || mid.Started.IsZero() {
		t.Fatalf("dispatched job: %+v", mid)
	}
	close(stub.gate)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done, err := q.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDeployed || done.Receipt == nil || done.Finished.IsZero() {
		t.Fatalf("finished job: %+v", done)
	}
	if done.Attempts != 1 || done.Batch != 1 {
		t.Fatalf("batch accounting: %+v", done)
	}
}

// TestWatchWakeup: Wait blocks until completion and wakes promptly; a done
// context returns the in-flight snapshot with the context error.
func TestWatchWakeup(t *testing.T) {
	stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	q := New(stub, Options{})
	defer q.Close()

	j, _ := q.Submit(context.Background(), req("svc"))
	<-stub.entered

	// Watcher with a deadline that fires while the job is still in flight.
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	snap, err := q.Wait(short, j.ID)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if snap.State.Terminal() {
		t.Fatalf("job should still be in flight: %+v", snap)
	}

	// Watcher parked before completion wakes on the terminal transition.
	woke := make(chan Job, 1)
	go func() {
		done, err := q.Wait(context.Background(), j.ID)
		if err != nil {
			t.Error(err)
		}
		woke <- done
	}()
	time.Sleep(10 * time.Millisecond)
	close(stub.gate)
	select {
	case done := <-woke:
		if done.State != StateDeployed {
			t.Fatalf("woke with %s", done.State)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never woke")
	}

	if _, err := q.Wait(context.Background(), "job-999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: %v", err)
	}
}

// TestCancelQueued: a queued job can be canceled and never reaches the
// layer; a dispatched job cannot.
func TestCancelQueued(t *testing.T) {
	stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	q := New(stub, Options{})
	defer q.Close()

	running, _ := q.Submit(context.Background(), req("running"))
	<-stub.entered
	doomed, _ := q.Submit(context.Background(), req("doomed"))
	kept, _ := q.Submit(context.Background(), req("kept"))

	if err := q.Cancel(doomed.ID); err != nil {
		t.Fatal(err)
	}
	if err := q.Cancel(running.ID); !errors.Is(err, ErrNotCancelable) {
		t.Fatalf("running job cancel: %v", err)
	}
	if err := q.Cancel("job-999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown cancel: %v", err)
	}

	// The canceled job is terminal immediately — watchers wake.
	done, err := q.Wait(context.Background(), doomed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateCanceled {
		t.Fatalf("canceled job: %s", done.State)
	}

	close(stub.gate)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := q.Wait(ctx, kept.ID); err != nil {
		t.Fatal(err)
	}
	stub.mu.Lock()
	defer stub.mu.Unlock()
	for _, batch := range stub.batches {
		for _, id := range batch {
			if id == "doomed" {
				t.Fatalf("canceled job reached the layer: %v", stub.batches)
			}
		}
	}
	if st := q.Stats(); st.Canceled != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSyncInstall: Queue.Install (the unify.Layer face) rides the batches and
// preserves error identity for rejections.
func TestSyncInstall(t *testing.T) {
	boom := fmt.Errorf("%w: no fit", unify.ErrRejected)
	stub := &stubLayer{fail: map[string]error{"lemon": boom}}
	q := New(stub, Options{})
	defer q.Close()

	receipt, err := q.Install(context.Background(), req("svc"))
	if err != nil || receipt.ServiceID != "svc" {
		t.Fatalf("install: %v %+v", err, receipt)
	}
	if _, err := q.Install(context.Background(), req("lemon")); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("error identity lost: %v", err)
	}
}

// TestFallbackPlainLayer: a layer without InstallBatch still works — batch
// members install individually.
func TestFallbackPlainLayer(t *testing.T) {
	stub := &stubLayer{}
	// Hide the BatchInstaller face behind a plain wrapper.
	q := New(plainLayer{stub}, Options{})
	defer q.Close()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = q.Install(context.Background(), req(fmt.Sprintf("svc%d", i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
	}
	stub.mu.Lock()
	defer stub.mu.Unlock()
	if len(stub.singles) != 4 || len(stub.batches) != 0 {
		t.Fatalf("fallback path: singles=%v batches=%v", stub.singles, stub.batches)
	}
}

// plainLayer exposes only the unify.Layer face of a stub (no InstallBatch),
// so the type assertion in New fails and the queue takes the per-request
// path.
type plainLayer struct{ s *stubLayer }

func (p plainLayer) ID() string                                   { return p.s.ID() }
func (p plainLayer) View(ctx context.Context) (*nffg.NFFG, error) { return p.s.View(ctx) }
func (p plainLayer) Remove(ctx context.Context, id string) error  { return p.s.Remove(ctx, id) }
func (p plainLayer) Services() []string                           { return p.s.Services() }
func (p plainLayer) Install(ctx context.Context, r *nffg.NFFG) (*unify.Receipt, error) {
	return p.s.Install(ctx, r)
}

// TestQueueFullAndClose: capacity bounds queued jobs; Close cancels the
// backlog.
func TestQueueFullAndClose(t *testing.T) {
	stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	q := New(stub, Options{QueueCap: 1})

	_, _ = q.Submit(context.Background(), req("running"))
	<-stub.entered
	backlog, err := q.Submit(context.Background(), req("backlog"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(context.Background(), req("overflow")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow: %v", err)
	}

	go func() {
		time.Sleep(10 * time.Millisecond)
		close(stub.gate)
	}()
	q.Close()
	done, err := q.Job(backlog.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateCanceled {
		t.Fatalf("backlog after close: %s", done.State)
	}
	if _, err := q.Submit(context.Background(), req("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

// TestCloseCancelRace covers the take/close/cancel interleaving the lifecycle
// tests leave out: jobs queued behind a busy lane while the lane's release,
// Cancel and Close race each other. Every job must reach exactly one terminal
// state and Close must return without deadlocking, no matter who wins.
func TestCloseCancelRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
		q := New(stub, Options{})
		blocker, err := q.Submit(context.Background(), req("blocker"))
		if err != nil {
			t.Fatal(err)
		}
		<-stub.entered // the lane is busy: the jobs below queue behind it
		jobs := []Job{blocker}
		for i := 0; i < 6; i++ {
			j, err := q.Submit(context.Background(), req(fmt.Sprintf("svc%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			close(stub.gate) // the lane's release races take against Close
		}()
		go func() {
			defer wg.Done()
			// Cancel whatever is still cancelable; ErrNotCancelable and
			// ErrCanceled races are legitimate outcomes.
			for _, j := range jobs[1:4] {
				if err := q.Cancel(j.ID); err != nil &&
					!errors.Is(err, ErrNotCancelable) && !errors.Is(err, ErrUnknownJob) {
					t.Errorf("cancel: %v", err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			q.Close()
		}()
		wg.Wait()
		// Close returned: every job must be terminal exactly once.
		for _, j := range jobs {
			done, err := q.Job(j.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !done.State.Terminal() {
				t.Fatalf("round %d: job %s left in state %s", round, j.ID, done.State)
			}
		}
		st := q.Stats()
		if st.Deployed+st.Failed+st.Canceled != st.Submitted {
			t.Fatalf("round %d: outcome accounting: %+v", round, st)
		}
	}
}

// shardedStub is a unify.Layer + BatchInstaller + Sharder whose shard set is
// the request ID's prefix (up to the first '-') and whose InstallBatch blocks
// while its batch contains a job of a gated shard.
type shardedStub struct {
	gated   string        // shard key whose batches block ...
	gate    chan struct{} // ... until this closes
	entered chan string   // shard key observed at each InstallBatch entry

	mu      sync.Mutex
	batches [][]string
}

func shardOfID(id string) string {
	if i := strings.IndexByte(id, '-'); i > 0 {
		return id[:i]
	}
	return id
}

func (s *shardedStub) ID() string                               { return "sharded-stub" }
func (s *shardedStub) View(context.Context) (*nffg.NFFG, error) { return nffg.New("v"), nil }
func (s *shardedStub) Remove(_ context.Context, _ string) error { return nil }
func (s *shardedStub) Services() []string                       { return nil }
func (s *shardedStub) ShardSet(req *nffg.NFFG) []string         { return []string{shardOfID(req.ID)} }
func (s *shardedStub) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	out := s.InstallBatch(ctx, []*nffg.NFFG{req}, unify.BatchObserver{})
	return out[0].Receipt, out[0].Err
}

func (s *shardedStub) InstallBatch(ctx context.Context, reqs []*nffg.NFFG, obs unify.BatchObserver) []unify.BatchOutcome {
	ids := make([]string, len(reqs))
	blocked := false
	for i, r := range reqs {
		ids[i] = r.ID
		if shardOfID(r.ID) == s.gated {
			blocked = true
		}
	}
	if s.entered != nil {
		s.entered <- shardOfID(ids[0])
	}
	if blocked && s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
		}
	}
	s.mu.Lock()
	s.batches = append(s.batches, ids)
	s.mu.Unlock()
	out := make([]unify.BatchOutcome, len(reqs))
	for i := range reqs {
		out[i].Attempts = 1
		if obs.Admitted != nil {
			obs.Admitted(i)
		}
		out[i].Receipt = &unify.Receipt{ServiceID: reqs[i].ID}
		if obs.Done != nil {
			obs.Done(i, out[i])
		}
	}
	return out
}

// TestShardLaneFairness: a blocked batch on shard "a" must not stall jobs
// bound for shard "b" — disjoint lanes dispatch concurrently, so the queue no
// longer serializes admission head-of-line across shards.
func TestShardLaneFairness(t *testing.T) {
	stub := &shardedStub{gated: "a", gate: make(chan struct{}), entered: make(chan string, 16)}
	q := New(stub, Options{})
	defer func() {
		close(stub.gate)
		q.Close()
	}()

	aJob, err := q.Submit(context.Background(), req("a-1"))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the a-lane batch is inside (and blocked in) the layer.
	if got := <-stub.entered; got != "a" {
		t.Fatalf("first dispatch: %s", got)
	}

	bJob, err := q.Submit(context.Background(), req("b-1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done, err := q.Wait(ctx, bJob.ID)
	if err != nil {
		t.Fatalf("b-lane job starved behind a blocked a-lane batch: %v", err)
	}
	if done.State != StateDeployed {
		t.Fatalf("b job: %s (%s)", done.State, done.Error)
	}
	// The a job is still in flight, blocked in the layer.
	cur, err := q.Job(aJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cur.State.Terminal() {
		t.Fatalf("a job should still be blocked, is %s", cur.State)
	}
	// Per-shard gauges saw both lanes.
	st := q.Stats()
	if st.Shards["a"].Batches == 0 || st.Shards["b"].Batches == 0 {
		t.Fatalf("shard gauges: %+v", st.Shards)
	}
}

// TestShardLaneSerialization: two batches bound for the SAME shard lane never
// overlap inside the layer, even though the dispatcher hands groups off
// concurrently — the busy-lane set preserves the zero-conflict guarantee.
func TestShardLaneSerialization(t *testing.T) {
	stub := &shardedStub{gated: "a", gate: make(chan struct{}), entered: make(chan string, 16)}
	q := New(stub, Options{})
	defer q.Close()

	first, _ := q.Submit(context.Background(), req("a-1"))
	<-stub.entered // lane a is now blocked inside the layer
	second, _ := q.Submit(context.Background(), req("a-2"))

	// The second a-lane batch must NOT enter the layer while the first holds
	// the lane.
	select {
	case got := <-stub.entered:
		t.Fatalf("lane a overlapped: second batch entered (%s) while first blocked", got)
	case <-time.After(50 * time.Millisecond):
	}
	close(stub.gate)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, id := range []string{first.ID, second.ID} {
		if done, err := q.Wait(ctx, id); err != nil || done.State != StateDeployed {
			t.Fatalf("job %s: %v %+v", id, err, done)
		}
	}
}

// TestQueueOverOrchestrator is the integration check: a queue in front of a
// real core.ResourceOrchestrator coalesces concurrent installs into batch
// commits with zero generation conflicts.
func TestQueueOverOrchestrator(t *testing.T) {
	const domains = 4
	ro := core.NewResourceOrchestrator(core.Config{ID: "ro"})
	for i := 0; i < domains; i++ {
		name := fmt.Sprintf("d%d", i)
		left := "sap1"
		if i > 0 {
			left = fmt.Sprintf("b%d", i-1)
		}
		right := "sap2"
		if i < domains-1 {
			right = fmt.Sprintf("b%d", i)
		}
		sub := nffg.NewBuilder(name).
			BiSBiS(nffg.ID(name+"-n"), name, 4, nffg.Resources{CPU: 16, Mem: 8192, Storage: 16}, "fw").
			SAP(nffg.ID(left)).SAP(nffg.ID(right)).
			Link("l", nffg.ID(left), "1", nffg.ID(name+"-n"), "1", 1000, 1).
			Link("r", nffg.ID(name+"-n"), "2", nffg.ID(right), "1", 1000, 1).
			MustBuild()
		lo, err := core.NewLocalOrchestrator(core.LocalConfig{ID: name, Substrate: sub})
		if err != nil {
			t.Fatal(err)
		}
		if err := ro.Attach(context.Background(), lo); err != nil {
			t.Fatal(err)
		}
	}
	q := New(ro, Options{})
	defer q.Close()

	var wg sync.WaitGroup
	errs := make([]error, domains)
	for i := 0; i < domains; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			left := "sap1"
			if i > 0 {
				left = fmt.Sprintf("b%d", i-1)
			}
			right := "sap2"
			if i < domains-1 {
				right = fmt.Sprintf("b%d", i)
			}
			id := fmt.Sprintf("svc%d", i)
			nf := nffg.ID(id + "-nf")
			g := nffg.NewBuilder(id).
				SAP(nffg.ID(left)).SAP(nffg.ID(right)).
				NF(nf, "fw", 2, nffg.Resources{CPU: 2, Mem: 512, Storage: 2}).
				Chain(id, 1, 0, nffg.ID(left), nf, nffg.ID(right)).
				MustBuild()
			g.NFs.Get(nf).Host = nffg.ID(fmt.Sprintf("bisbis@d%d", i))
			_, errs[i] = q.Install(context.Background(), g)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
	}
	st := ro.PipelineStats()
	if st.GenConflicts != 0 {
		t.Fatalf("queued installs should not conflict: %+v", st)
	}
	if st.Installs != domains {
		t.Fatalf("installs: %+v", st)
	}
	if qs := q.Stats(); qs.Deployed != domains || qs.Batches == 0 {
		t.Fatalf("queue stats: %+v", qs)
	}
}

// TestAbandonedSyncInstallRollsBack: a synchronous Install whose caller gave
// up after dispatch must not leave the deployed service behind — the queue
// tears it down once the job completes.
func TestAbandonedSyncInstallRollsBack(t *testing.T) {
	stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	q := New(stub, Options{})
	defer q.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := q.Install(ctx, req("orphan"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned install: %v", err)
	}
	close(stub.gate) // the dispatched batch now completes and deploys "orphan"

	deadline := time.Now().Add(5 * time.Second)
	for {
		stub.mu.Lock()
		rolledBack := len(stub.removed) == 1 && stub.removed[0] == "orphan"
		stub.mu.Unlock()
		if rolledBack {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned deployed service was never rolled back")
		}
		time.Sleep(time.Millisecond)
	}
}
