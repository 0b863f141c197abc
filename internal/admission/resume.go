// Job-table persistence and crash resume: the queue write-ahead-logs every
// admission and terminal transition through a JobJournal, and Resume rebuilds
// the job table from the recovered records at startup — re-enqueuing jobs
// that never finished (with their tenant/priority/trace identity intact) and
// finishing jobs whose services already committed before the crash.
package admission

import (
	"errors"
	"log"
	"sort"
	"strconv"
	"strings"
	"time"

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

// jobRecord converts a job to its WAL form. The request graph rides only on
// admit records (withReq); terminal records carry just the outcome.
func jobRecord(j *job, withReq bool) journal.JobRecord {
	rec := journal.JobRecord{
		ID:        j.snap.ID,
		ServiceID: j.snap.ServiceID,
		Tenant:    j.snap.Tenant,
		Priority:  string(j.snap.Priority),
		TraceID:   j.snap.TraceID,
		State:     string(j.snap.State),
		Error:     j.snap.Error,
		Submitted: j.snap.Submitted,
		Finished:  j.snap.Finished,
	}
	if withReq {
		rec.Request = j.req
	}
	return rec
}

// maybeCompactJournalLocked rewrites the job WAL down to the open jobs once
// it grows past JournalCompactBytes. Runs under q.mu, which is what makes
// the compaction safe: no admit/terminal record can interleave with the
// rewrite.
func (q *Queue) maybeCompactJournalLocked() {
	if q.opts.JournalCompactBytes < 0 {
		return
	}
	if q.opts.Journal.JobsLogSize() < q.opts.JournalCompactBytes {
		return
	}
	open := make([]*job, 0, len(q.jobs))
	for _, j := range q.jobs {
		if !j.snap.State.Terminal() {
			open = append(open, j)
		}
	}
	sort.Slice(open, func(i, k int) bool { return open[i].seq < open[k].seq })
	recs := make([]journal.JobRecord, len(open))
	for i, j := range open {
		recs[i] = jobRecord(j, true)
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
// by compacting the job WAL down to exactly the requeued jobs.
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
		if seq > q.seq {
			q.seq = seq
		}
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
		if p.Requeue {
			if q.sharder != nil && j.req != nil {
				j.shards = q.sharder.ShardSet(j.req)
			}
			j.trace = q.opts.Tracer.Trace(rec.TraceID) // nil tracer → nil trace
			j.snap.TraceID = j.trace.ID()
			j.snap.State = StateQueued
			j.root = j.trace.StartSpan(nil, "job",
				"job", j.snap.ID, "service", j.snap.ServiceID, "tenant", meta.Tenant, "resumed", "true")
			j.wait = j.trace.StartSpan(j.root, "admission.wait")
			tq := q.tenantLocked(meta.Tenant)
			q.jobs[j.snap.ID] = j
			tq.push(j)
			tq.stats.Submitted++
			q.depth++
			q.stats.Submitted++
			if q.depth > q.stats.MaxDepth {
				q.stats.MaxDepth = q.depth
			}
			requeued++
		} else {
			j.snap.State = p.State
			j.snap.Receipt = p.Receipt
			j.snap.Error = p.Error
			j.snap.Finished = rec.Finished
			if j.snap.Finished.IsZero() {
				j.snap.Finished = time.Now()
			}
			if p.Error != "" {
				j.err = errors.New(p.Error)
			}
			close(j.done)
			q.jobs[j.snap.ID] = j
			q.finished = append(q.finished, j)
			tq := q.tenantLocked(meta.Tenant)
			tq.stats.Submitted++
			q.stats.Submitted++
			switch p.State {
			case StateDeployed:
				q.stats.Deployed++
				tq.stats.Deployed++
			case StateFailed:
				q.stats.Failed++
				tq.stats.Failed++
			case StateCanceled:
				q.stats.Canceled++
				tq.stats.Canceled++
			}
			q.reclaimTenantLocked(tq)
			completed++
		}
	}
	for len(q.finished) > q.opts.Retention {
		old := q.finished[0]
		q.finished = q.finished[1:]
		delete(q.jobs, old.snap.ID)
	}
	q.stats.Resumed += uint64(requeued + completed)
	// Rewrite the WAL to exactly the open (requeued) jobs: terminal history
	// and pre-crash records are gone, so a second restart starts from a
	// minimal log. Safe under q.mu — no concurrent appends.
	if q.opts.Journal != nil {
		open := make([]journal.JobRecord, 0, requeued)
		for _, p := range plans {
			if p.Requeue {
				if j, ok := q.jobs[p.Record.ID]; ok && !j.snap.State.Terminal() {
					open = append(open, jobRecord(j, true))
				}
			}
		}
		sort.Slice(open, func(i, k int) bool { return parseJobSeq(open[i].ID) < parseJobSeq(open[k].ID) })
		if err := q.opts.Journal.CompactJobs(open); err != nil {
			q.stats.JournalErrors++
			log.Printf("admission: compact job journal after resume: %v", err)
		}
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
