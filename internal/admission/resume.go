// Job-table persistence and crash resume: the queue write-ahead-logs every
// admission (journalLocked, from Submit) and every terminal transition (from
// the terminal door, terminateLocked — a rolled-back abandoned install
// included, so a restart sees it failed), and compacts the log down to the
// open jobs (compactJournalLocked) once it outgrows journalCompactBytes.
// Resume rebuilds the job table from the recovered records at startup:
// jobs that never finished re-enter their tenant's queue through
// enqueueLocked with their tenant/priority/trace identity intact, and
// finished history — including jobs whose services committed before the
// crash — enters through the terminal door.
package admission

import (
	"errors"
	"log"
	"sort"
	"strconv"
	"strings"

	"github.com/unify-repro/escape/internal/journal"
	"github.com/unify-repro/escape/internal/unify"
)

// JobJournal is the write-ahead hook the queue logs jobs through
// (implemented by *journal.Store). Calls happen under the queue mutex, so
// implementations must be plain appends, never blocking on queue state.
type JobJournal interface {
	LogJob(journal.JobRecord) error
	LogJobDone(journal.JobRecord) error
	JobsLogSize() int64
	CompactJobs([]journal.JobRecord) error
}

// journalCompactBytes is the job-WAL size past which the queue compacts its
// terminal history away.
const journalCompactBytes = 4 << 20

// jobRecord converts a job to its WAL form. The request graph rides only on
// an open job's record: the terminal door drops it.
func jobRecord(j *job) journal.JobRecord {
	return journal.JobRecord{
		ID:        j.snap.ID,
		ServiceID: j.snap.ServiceID,
		Tenant:    j.snap.Tenant,
		Priority:  string(j.snap.Priority),
		TraceID:   j.snap.TraceID,
		State:     string(j.snap.State),
		Error:     j.snap.Error,
		Submitted: j.snap.Submitted,
		Finished:  j.snap.Finished,
		Request:   j.req,
	}
}

// journalLocked appends j's record to the job WAL: the admit record while the
// job is open, the outcome once it is terminal. Append failures never fail
// the job; they are logged and counted. Callers hold q.mu, so the WAL sees
// every job's admit before its outcome.
func (q *Queue) journalLocked(j *job) {
	if q.opts.Journal == nil {
		return
	}
	var err error
	if j.snap.State.Terminal() {
		err = q.opts.Journal.LogJobDone(jobRecord(j))
	} else {
		err = q.opts.Journal.LogJob(jobRecord(j))
	}
	if err != nil {
		q.stats.JournalErrors++
		log.Printf("admission: journal %s %s: %v", j.snap.ID, j.snap.State, err)
	}
}

// compactJournalLocked rewrites the job WAL down to the open jobs, in
// submission order. Runs under q.mu, which is what makes it safe: no admit or
// terminal record can interleave with the rewrite.
func (q *Queue) compactJournalLocked() {
	open := make([]*job, 0, len(q.jobs))
	for _, j := range q.jobs {
		if !j.snap.State.Terminal() {
			open = append(open, j)
		}
	}
	sort.Slice(open, func(i, k int) bool { return open[i].seq < open[k].seq })
	recs := make([]journal.JobRecord, len(open))
	for i, j := range open {
		recs[i] = jobRecord(j)
	}
	if err := q.opts.Journal.CompactJobs(recs); err != nil {
		q.stats.JournalErrors++
		log.Printf("admission: compact job journal: %v", err)
	}
}

// ResumePlan is the reconciliation decision for one recovered job record.
type ResumePlan struct {
	Record journal.JobRecord
	// Requeue re-enqueues the job for dispatch; otherwise it is inserted
	// directly in the terminal State below.
	Requeue bool
	State   State
	Receipt *unify.Receipt
	Error   string
}

// BuildResumePlans reconciles recovered job records against the recovered
// service table (service ID → receipt of services that committed before the
// crash): terminal records become history, an open job whose service already
// exists is marked deployed with the recovered receipt (re-installing would
// reject on the duplicate service ID), and the rest requeue for a fresh
// dispatch.
func BuildResumePlans(jobs []journal.JobRecord, receipts map[string]*unify.Receipt) []ResumePlan {
	plans := make([]ResumePlan, 0, len(jobs))
	for _, rec := range jobs {
		switch {
		case rec.Terminal():
			p := ResumePlan{Record: rec, State: State(rec.State), Error: rec.Error}
			if p.State == StateDeployed {
				p.Receipt = receipts[rec.ServiceID]
			}
			plans = append(plans, p)
		case receipts[rec.ServiceID] != nil:
			plans = append(plans, ResumePlan{Record: rec, State: StateDeployed, Receipt: receipts[rec.ServiceID]})
		case rec.Request == nil:
			plans = append(plans, ResumePlan{Record: rec, State: StateFailed,
				Error: "admission: request graph lost in recovery"})
		default:
			plans = append(plans, ResumePlan{Record: rec, Requeue: true})
		}
	}
	return plans
}

// Resume loads reconciliation plans into the queue: requeued jobs re-enter
// their tenant's sub-queue with the original identity (the trace is re-minted
// under the recorded trace ID, so pre- and post-crash spans join), completed
// ones land in finished history. Resume must run before traffic is admitted
// (it assumes recovered "job-N" sequence numbers are not yet taken) and ends
// by compacting the job WAL down to exactly the open jobs, so a second
// restart starts from a minimal log.
func (q *Queue) Resume(plans []ResumePlan) (requeued, completed int) {
	if len(plans) == 0 {
		return 0, 0
	}
	q.mu.Lock()
	for _, p := range plans {
		rec := p.Record
		if _, dup := q.jobs[rec.ID]; dup {
			continue
		}
		seq := parseJobSeq(rec.ID)
		q.seq = max(q.seq, seq)
		meta := unify.RequestMeta{Tenant: rec.Tenant, Priority: unify.Priority(rec.Priority)}.Normalize()
		j := &job{
			seq: seq,
			req: rec.Request,
			snap: Job{
				ID:        rec.ID,
				ServiceID: rec.ServiceID,
				Tenant:    meta.Tenant,
				Priority:  meta.Priority,
				TraceID:   rec.TraceID,
				Submitted: rec.Submitted,
			},
			done: make(chan struct{}),
		}
		tq := q.tenantLocked(meta.Tenant)
		if p.Requeue {
			if q.sharder != nil && j.req != nil {
				j.shards = q.sharder.ShardSet(j.req)
			}
			trace := q.opts.Tracer.Trace(rec.TraceID) // nil tracer → nil trace
			j.snap.TraceID = trace.ID()
			q.enqueueLocked(j, tq, trace, true)
			requeued++
			continue
		}
		var err error
		if p.Error != "" {
			err = errors.New(p.Error)
		}
		j.snap.Finished = rec.Finished
		q.jobs[j.snap.ID] = j
		q.terminateLocked(j, p.State, p.Receipt, err)
		completed++
	}
	q.stats.Resumed += uint64(requeued + completed)
	if q.opts.Journal != nil {
		q.compactJournalLocked()
	}
	q.mu.Unlock()
	q.nudge()
	return requeued, completed
}

// parseJobSeq extracts N from "job-N" (0 when the ID has another shape).
func parseJobSeq(id string) uint64 {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0
	}
	return n
}
