package admission

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/journal"
	"github.com/unify-repro/escape/internal/unify"
)

// abandonAndRollBack drives one synchronous install that its caller gives up
// on after dispatch, lets the batch deploy, and waits until the queue has
// rolled the deployment back. It returns the job's ID.
func abandonAndRollBack(t *testing.T, q *Queue, stub *stubLayer) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := q.Install(ctx, req("orphan"))
		errc <- err
	}()
	<-stub.entered // dispatched: the job can no longer be canceled
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned install: %v", err)
	}
	close(stub.gate) // the batch deploys "orphan"; the queue then tears it down
	id := q.Jobs()[0].ID
	deadline := time.Now().Add(5 * time.Second)
	for {
		if j, _ := q.Job(id); j.State == StateFailed {
			return id
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned deployment was never rolled back")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAbandonedRollbackSurvivesRestart: a rolled-back abandoned install is
// failed live, so it must read failed after a restart too — the rollback is
// journaled, not only applied to the live job.
func TestAbandonedRollbackSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	q := New(stub, Options{Journal: st})
	id := abandonAndRollBack(t, q, stub)
	q.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	state, _, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	q2 := New(&stubLayer{}, Options{})
	defer q2.Close()
	q2.Resume(BuildResumePlans(state.Jobs, nil))
	j, err := q2.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateFailed || j.Receipt != nil {
		t.Fatalf("rolled-back job after restart: state %s, receipt %v; want failed, none", j.State, j.Receipt)
	}
}

// terminalPaths drive one fresh queue each down the ways a job reaches, or
// moves between, terminal states.
var terminalPaths = []struct {
	name string
	run  func(t *testing.T) *Queue
}{
	{"deployed failed canceled", func(t *testing.T) *Queue {
		stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16),
			fail: map[string]error{"bad": errors.New("no capacity")}}
		q := New(stub, Options{})
		ctx := unify.WithMeta(context.Background(), unify.RequestMeta{Tenant: "acme"})
		ok, _ := q.Submit(ctx, req("ok"))
		<-stub.entered // "ok" holds the lane; the rest queue behind it
		bad, _ := q.Submit(context.Background(), req("bad"))
		gone, _ := q.Submit(ctx, req("gone"))
		if err := q.Cancel(gone.ID); err != nil {
			t.Fatal(err)
		}
		close(stub.gate)
		for _, id := range []string{ok.ID, bad.ID} {
			if _, err := q.Wait(context.Background(), id); err != nil {
				t.Fatal(err)
			}
		}
		return q
	}},
	{"drained by close", func(t *testing.T) *Queue {
		stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
		q := New(stub, Options{})
		for _, id := range []string{"a", "b", "c"} {
			if _, err := q.Submit(context.Background(), req(id)); err != nil {
				t.Fatal(err)
			}
		}
		<-stub.entered
		q.Close() // "b" and "c" drain; "a" finishes in flight
		return q
	}},
	{"abandoned then rolled back", func(t *testing.T) *Queue {
		stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
		q := New(stub, Options{})
		abandonAndRollBack(t, q, stub)
		return q
	}},
	{"resumed as history", func(t *testing.T) *Queue {
		q := New(&stubLayer{}, Options{})
		q.Resume(BuildResumePlans([]journal.JobRecord{
			{ID: "job-1", ServiceID: "s1", State: "deployed", Tenant: "acme"},
			{ID: "job-2", ServiceID: "s2", State: "failed", Error: "boom"},
			{ID: "job-3", ServiceID: "s3", State: "canceled", Error: "admission: job canceled"},
			{ID: "job-4", ServiceID: "s4", State: "queued"}, // request graph lost
		}, nil))
		return q
	}},
	{"resumed requeued deployed", func(t *testing.T) *Queue {
		q := New(&stubLayer{}, Options{})
		q.Resume(BuildResumePlans([]journal.JobRecord{
			{ID: "job-7", ServiceID: "s7", State: "queued", Tenant: "acme", Request: req("s7")},
		}, nil))
		if j, err := q.Wait(context.Background(), "job-7"); err != nil || j.State != StateDeployed {
			t.Fatalf("requeued job: %+v, %v", j, err)
		}
		return q
	}},
}

// forEachTerminalPath runs check on the queue each terminal path leaves.
func forEachTerminalPath(t *testing.T, check func(t *testing.T, q *Queue)) {
	for _, tc := range terminalPaths {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.run(t)
			defer q.Close()
			check(t, q)
		})
	}
}

// TestJobCountersAgree: after every terminal path, the queue's totals equal
// the sum over its tenants and the count of its jobs by state.
func TestJobCountersAgree(t *testing.T) {
	forEachTerminalPath(t, func(t *testing.T, q *Queue) {
		st := q.Stats()
		var sum TenantStats
		for _, ts := range st.Tenants {
			sum.Submitted += ts.Submitted
			sum.Deployed += ts.Deployed
			sum.Failed += ts.Failed
			sum.Canceled += ts.Canceled
		}
		if sum.Submitted != st.Submitted || sum.Deployed != st.Deployed ||
			sum.Failed != st.Failed || sum.Canceled != st.Canceled {
			t.Fatalf("queue totals %+v disagree with the tenants' sum %+v", st, sum)
		}
		byState := map[State]uint64{}
		for _, j := range q.Jobs() {
			byState[j.State]++
		}
		if byState[StateDeployed] != st.Deployed || byState[StateFailed] != st.Failed ||
			byState[StateCanceled] != st.Canceled || uint64(len(q.Jobs())) != st.Submitted {
			t.Fatalf("queue totals %+v disagree with the jobs by state %v", st, byState)
		}
	})
}

// TestTerminalJobsDropRequest: a finished job stays queryable for a long
// time, so once terminal it must not pin its request graph or shard set.
func TestTerminalJobsDropRequest(t *testing.T) {
	forEachTerminalPath(t, func(t *testing.T, q *Queue) {
		q.mu.Lock()
		defer q.mu.Unlock()
		for id, j := range q.jobs {
			if j.snap.State.Terminal() && (j.req != nil || j.shards != nil) {
				t.Fatalf("terminal job %s (%s) still holds its request", id, j.snap.State)
			}
		}
	})
}

// compactJournal is a JobJournal whose log always reads over the compaction
// threshold, so every terminal record triggers a compaction it records.
type compactJournal struct {
	mu        sync.Mutex
	compacted [][]journal.JobRecord
}

func (c *compactJournal) LogJob(journal.JobRecord) error     { return nil }
func (c *compactJournal) LogJobDone(journal.JobRecord) error { return nil }
func (c *compactJournal) JobsLogSize() int64                 { return journalCompactBytes }
func (c *compactJournal) CompactJobs(open []journal.JobRecord) error {
	c.mu.Lock()
	c.compacted = append(c.compacted, open)
	c.mu.Unlock()
	return nil
}

// TestJournalCompactsOpenJobs: once the job WAL outgrows the threshold, a
// terminal transition rewrites it to exactly the open jobs, with their
// request graphs, in submission order.
func TestJournalCompactsOpenJobs(t *testing.T) {
	jr := &compactJournal{}
	stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	q := New(stub, Options{Journal: jr})
	defer q.Close()
	var ids []string
	for _, svc := range []string{"a", "b", "c", "d"} {
		j, err := q.Submit(context.Background(), req(svc))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
		if svc == "a" {
			<-stub.entered // "a" holds the lane; the rest queue behind it
		}
	}
	if err := q.Cancel(ids[2]); err != nil {
		t.Fatal(err)
	}
	jr.mu.Lock()
	if len(jr.compacted) != 1 {
		jr.mu.Unlock()
		t.Fatalf("%d compactions after one terminal record, want 1", len(jr.compacted))
	}
	got := jr.compacted[0]
	jr.mu.Unlock()
	want := []string{ids[0], ids[1], ids[3]}
	if len(got) != len(want) {
		t.Fatalf("compacted to %d records, want the %d open jobs %v", len(got), len(want), want)
	}
	for i, rec := range got {
		if rec.ID != want[i] || rec.Request == nil || rec.Terminal() {
			t.Fatalf("compacted record %d = %s (%s, request %v), want open %s with its request",
				i, rec.ID, rec.State, rec.Request != nil, want[i])
		}
	}
}
