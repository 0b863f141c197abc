package admission

// Tests of group-commit dispatch: a job whose lanes are idle leaves at once,
// with no timer armed; a job behind a busy lane stays queued — cancelable,
// its wait still counting — until the lane's group finishes; a global job is
// not starved by shard groups; and pauses compose with busy lanes.

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/obs"
	"github.com/unify-repro/escape/internal/unify"
)

// stepStub is a sharded BatchInstaller whose every batch reports its request
// IDs on entered and then blocks until the test hands it a token on release.
// Its shard set is the request ID's prefix, except prefix "g", which is
// global (nil set).
type stepStub struct {
	entered chan []string
	release chan struct{}
}

func (s *stepStub) ID() string                               { return "step-stub" }
func (s *stepStub) View(context.Context) (*nffg.NFFG, error) { return nffg.New("v"), nil }
func (s *stepStub) Remove(context.Context, string) error     { return nil }
func (s *stepStub) Services() []string                       { return nil }
func (s *stepStub) ShardSet(req *nffg.NFFG) []string {
	if k := shardOfID(req.ID); k != "g" {
		return []string{k}
	}
	return nil
}
func (s *stepStub) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	out := s.InstallBatch(ctx, []*nffg.NFFG{req}, unify.BatchObserver{})
	return out[0].Receipt, out[0].Err
}

func (s *stepStub) InstallBatch(ctx context.Context, reqs []*nffg.NFFG, obs unify.BatchObserver) []unify.BatchOutcome {
	ids := make([]string, len(reqs))
	for i, r := range reqs {
		ids[i] = r.ID
	}
	s.entered <- ids
	out := make([]unify.BatchOutcome, len(reqs))
	select {
	case <-s.release:
	case <-ctx.Done():
		for i := range out {
			out[i].Err = ctx.Err()
		}
		return out
	}
	for i := range reqs {
		out[i].Receipt = &unify.Receipt{ServiceID: reqs[i].ID}
		if obs.Admitted != nil {
			obs.Admitted(i)
		}
		if obs.Done != nil {
			obs.Done(i, out[i])
		}
	}
	return out
}

// expectNoEntry fails if any batch enters the layer within a short grace
// period.
func expectNoEntry(t *testing.T, s *stepStub, why string) {
	t.Helper()
	select {
	case ids := <-s.entered:
		t.Fatalf("%s: batch %v entered the layer", why, ids)
	case <-time.After(50 * time.Millisecond):
	}
}

func expectEntry(t *testing.T, s *stepStub) []string {
	t.Helper()
	select {
	case ids := <-s.entered:
		return ids
	case <-time.After(5 * time.Second):
		t.Fatal("no batch entered the layer")
		return nil
	}
}

// TestIdleLaneArmsNoTimer: the deprecated Window is ignored — a job on an
// idle queue deploys at once, even with an hour-long window configured.
func TestIdleLaneArmsNoTimer(t *testing.T) {
	q := New(&stubLayer{}, Options{Window: time.Hour})
	defer q.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := q.Install(ctx, req("svc")); err != nil {
		t.Fatalf("install on an idle lane: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("install on an idle lane took %v", elapsed)
	}
}

// TestQueuedBehindBusyLane: a job whose lane has a group mapping stays
// queued — not stamped as dispatched — so Cancel succeeds on it, and the
// lane wait of a job that does dispatch counts in its admission.wait span
// and the queue-wait histogram.
func TestQueuedBehindBusyLane(t *testing.T) {
	stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	q := New(stub, Options{Tracer: obs.NewTracer(0)})
	defer q.Close()

	if _, err := q.Submit(context.Background(), req("first")); err != nil {
		t.Fatal(err)
	}
	<-stub.entered // the lane is busy until the gate opens
	doomed, _ := q.Submit(context.Background(), req("doomed"))
	waiter, _ := q.Submit(context.Background(), req("waiter"))
	const laneWait = 40 * time.Millisecond
	time.Sleep(laneWait)
	for _, id := range []string{doomed.ID, waiter.ID} {
		if j, _ := q.Job(id); j.State != StateQueued || !j.Started.IsZero() {
			t.Fatalf("job behind a busy lane: %s (started %v), want queued", j.State, j.Started)
		}
	}
	if err := q.Cancel(doomed.ID); err != nil {
		t.Fatalf("cancel behind a busy lane: %v", err)
	}
	close(stub.gate)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done, err := q.Wait(ctx, waiter.ID)
	if err != nil || done.State != StateDeployed {
		t.Fatalf("waiter: %v %+v", err, done)
	}
	if wait := done.Started.Sub(done.Submitted); wait < laneWait {
		t.Fatalf("job wait %v excludes the %v lane wait", wait, laneWait)
	}
	var span time.Duration
	for _, s := range q.Tracer().Lookup(done.TraceID).Snapshot().Spans {
		if s.Name == "admission.wait" {
			span = s.Duration
		}
	}
	if span < laneWait {
		t.Fatalf("admission.wait span %v excludes the %v lane wait", span, laneWait)
	}
	if h := q.StageHistograms()["admission_wait"]; h.Count != 2 || h.Quantile(1) < laneWait {
		t.Fatalf("wait histogram (count %d, max %v) misses the lane wait", h.Count, h.Quantile(1))
	}
}

// TestGlobalJobNotStarved: a global job submitted while shard lanes a and b
// are busy holds back the shard jobs queued after it, and dispatches as soon
// as the groups already in flight finish.
func TestGlobalJobNotStarved(t *testing.T) {
	stub := &stepStub{entered: make(chan []string, 16), release: make(chan struct{})}
	q := New(stub, Options{})
	defer q.Close()
	submit := func(id string) Job {
		t.Helper()
		j, err := q.Submit(context.Background(), req(id))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	jobs := []Job{submit("a-1")}
	expectEntry(t, stub)
	jobs = append(jobs, submit("b-1"))
	expectEntry(t, stub) // both lanes busy
	global := submit("g-1")
	jobs = append(jobs, global, submit("a-2"), submit("b-2"))
	expectNoEntry(t, stub, "both lanes busy")

	stub.release <- struct{}{} // one lane goes idle
	expectNoEntry(t, stub, "a global job waits for the other lane")
	stub.release <- struct{}{}
	ids := expectEntry(t, stub)
	if ids[0] != "g-1" {
		t.Fatalf("after the lanes drained: batch %v, want the global job first", ids)
	}
	// With every lane idle the shard jobs may ride the global group; any
	// that did not follow it.
	for seen := len(ids); ; seen += len(expectEntry(t, stub)) {
		stub.release <- struct{}{}
		if seen == 3 {
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, j := range jobs {
		if done, err := q.Wait(ctx, j.ID); err != nil || done.State != StateDeployed {
			t.Fatalf("job %s: %v %+v", j.ID, err, done)
		}
	}
}

// TestPauseAndBusyLane: a pause and a busy lane both restrict dispatch; the
// lane's release lets its own backlog go but not the paused lane's, and
// ResumeShards wakes the dispatcher for the rest.
func TestPauseAndBusyLane(t *testing.T) {
	stub := &stepStub{entered: make(chan []string, 16), release: make(chan struct{})}
	q := New(stub, Options{})
	defer q.Close()

	a1, _ := q.Submit(context.Background(), req("a-1"))
	expectEntry(t, stub) // lane a busy
	q.PauseShards([]string{"b"})
	a2, _ := q.Submit(context.Background(), req("a-2"))
	b1, _ := q.Submit(context.Background(), req("b-1"))
	expectNoEntry(t, stub, "lane a busy, lane b paused")

	stub.release <- struct{}{} // a-1 commits; a-2 follows, b-1 stays paused
	if ids := expectEntry(t, stub); len(ids) != 1 || ids[0] != "a-2" {
		t.Fatalf("after lane a went idle: batch %v, want a-2", ids)
	}
	stub.release <- struct{}{}
	expectNoEntry(t, stub, "lane b paused")
	if j, _ := q.Job(b1.ID); j.State != StateQueued {
		t.Fatalf("paused job: %s, want queued", j.State)
	}

	q.ResumeShards([]string{"b"})
	if ids := expectEntry(t, stub); len(ids) != 1 || ids[0] != "b-1" {
		t.Fatalf("after resume: batch %v, want b-1", ids)
	}
	stub.release <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, id := range []string{a1.ID, a2.ID, b1.ID} {
		if done, err := q.Wait(ctx, id); err != nil || done.State != StateDeployed {
			t.Fatalf("job %s: %v %+v", id, err, done)
		}
	}
	if err := q.Cancel(b1.ID); !errors.Is(err, ErrNotCancelable) {
		t.Fatalf("cancel of a finished job: %v", err)
	}
}
