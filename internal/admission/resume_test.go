package admission

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/journal"
	"github.com/unify-repro/escape/internal/unify"
)

// TestJournalResumeRoundtrip is the admission half of crash recovery: jobs
// submitted to a journaled queue die mid-flight (the process "crashes" while
// the dispatcher is wedged in a batch), and a fresh queue resumes them from
// the recovered log with tenant and priority identity intact, driving every
// one to a terminal state.
func TestJournalResumeRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The stub never opens its gate: every submission is on the log as an
	// open record when the "crash" happens.
	stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	q := New(stub, Options{Journal: st})
	metas := map[string]unify.RequestMeta{
		"svcA": {Tenant: "acme", Priority: unify.PriorityHigh},
		"svcB": {Tenant: "acme", Priority: unify.PriorityHigh},
		"svcC": {Tenant: "umbrella", Priority: unify.PriorityLow},
		"svcD": {},
	}
	ids := map[string]string{}
	for _, svc := range []string{"svcA", "svcB", "svcC", "svcD"} {
		ctx := unify.WithMeta(context.Background(), metas[svc])
		j, err := q.Submit(ctx, req(svc))
		if err != nil {
			t.Fatal(err)
		}
		ids[svc] = j.ID
	}
	<-stub.entered // dispatcher is now wedged inside InstallBatch

	// Crash: the store is abandoned un-Closed, the queue is simply dropped.
	state, _, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Jobs) != 4 {
		t.Fatalf("recovered %d job records, want 4", len(state.Jobs))
	}

	plans := BuildResumePlans(state.Jobs, nil)
	for _, p := range plans {
		if !p.Requeue {
			t.Fatalf("job %s: open record must requeue, got state %s", p.Record.ID, p.State)
		}
	}

	stub2 := &stubLayer{fail: map[string]error{"svcB": errors.New("no capacity")}}
	q2 := New(stub2, Options{})
	defer q2.Close()
	requeued, completed := q2.Resume(plans)
	if requeued != 4 || completed != 0 {
		t.Fatalf("Resume = (%d, %d), want (4, 0)", requeued, completed)
	}

	for svc, id := range ids {
		done, err := q2.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		want := StateDeployed
		if svc == "svcB" {
			want = StateFailed
		}
		if done.State != want {
			t.Fatalf("job %s: state %s, want %s (err %q)", id, done.State, want, done.Error)
		}
		meta := metas[svc].Normalize()
		if done.Tenant != meta.Tenant || done.Priority != meta.Priority {
			t.Fatalf("job %s: identity lost: tenant %q prio %q, want %q/%q",
				id, done.Tenant, done.Priority, meta.Tenant, meta.Priority)
		}
	}

	// Sequence numbers continue past the recovered jobs: a fresh submission
	// must not collide with a resumed job ID.
	j, err := q2.Submit(context.Background(), req("svcE"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if j.ID == id {
			t.Fatalf("fresh job reused recovered ID %s", id)
		}
	}
	if q2.Stats().Resumed != 4 {
		t.Fatalf("stats.Resumed = %d, want 4", q2.Stats().Resumed)
	}
}

// TestResumeReconciliation pins the non-requeue plans: terminal records land
// straight in history, an open record whose service already holds a receipt
// reconciles to deployed (re-install would collide), and an open record that
// lost its request graph fails rather than requeueing a nil request.
func TestResumeReconciliation(t *testing.T) {
	receipt := &unify.Receipt{ServiceID: "svc-live"}
	jobs := []journal.JobRecord{
		{ID: "job-1", ServiceID: "svc-done", State: "deployed", Tenant: "acme"},
		{ID: "job-2", ServiceID: "svc-dead", State: "failed", Error: "boom"},
		{ID: "job-3", ServiceID: "svc-live", State: "mapping"}, // receipt exists
		{ID: "job-4", ServiceID: "svc-lost", State: "queued"},  // request graph gone
	}
	plans := BuildResumePlans(jobs, map[string]*unify.Receipt{"svc-live": receipt})
	for _, p := range plans {
		if p.Requeue {
			t.Fatalf("job %s must not requeue", p.Record.ID)
		}
	}

	q := New(&stubLayer{}, Options{})
	defer q.Close()
	requeued, completed := q.Resume(plans)
	if requeued != 0 || completed != 4 {
		t.Fatalf("Resume = (%d, %d), want (0, 4)", requeued, completed)
	}

	expect := map[string]struct {
		state State
		err   string
	}{
		"job-1": {StateDeployed, ""},
		"job-2": {StateFailed, "boom"},
		"job-3": {StateDeployed, ""},
		"job-4": {StateFailed, "request graph lost"},
	}
	for id, want := range expect {
		// Wait must return immediately: the jobs are already terminal.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		done, err := q.Wait(ctx, id)
		cancel()
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if done.State != want.state || !strings.Contains(done.Error, want.err) {
			t.Fatalf("job %s: (%s, %q), want (%s, ~%q)", id, done.State, done.Error, want.state, want.err)
		}
	}
	// Resuming the same plans again is a no-op: known IDs are skipped.
	if r, c := q.Resume(plans); r != 0 || c != 0 {
		t.Fatalf("duplicate Resume = (%d, %d), want (0, 0)", r, c)
	}
}

// TestCloseDuringInFlightBatch is the clean-shutdown sweep for the queue:
// Close fires while the dispatcher is wedged inside InstallBatch with more
// jobs queued behind it and watchers parked in Wait. Everything must come
// back: every job terminal, every watcher woken, accounting consistent.
func TestCloseDuringInFlightBatch(t *testing.T) {
	stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	q := New(stub, Options{})

	const n = 8
	var jobs []Job
	for i := 0; i < n; i++ {
		j, err := q.Submit(context.Background(), req(fmt.Sprintf("svc%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	<-stub.entered // first batch is in flight, the rest queued behind it

	var wg sync.WaitGroup
	states := make([]Job, n)
	errs := make([]error, n)
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			states[i], errs[i] = q.Wait(context.Background(), id)
		}(i, j.ID)
	}

	q.Close() // cancels the in-flight batch context and drains the backlog
	wg.Wait()

	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("watcher %d: %v", i, errs[i])
		}
		if !states[i].State.Terminal() {
			t.Fatalf("job %s left non-terminal after Close: %s", states[i].ID, states[i].State)
		}
	}
	st := q.Stats()
	if st.Deployed+st.Failed+st.Canceled != st.Submitted {
		t.Fatalf("outcome accounting after Close: %+v", st)
	}
	// Close is idempotent and must not hang on the second call.
	q.Close()
}
