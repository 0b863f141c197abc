// Package admission puts a group-commit admission queue in front of a
// unify.Layer: a request whose lane is idle dispatches at once, and requests
// that arrive while their lane's previous batch is mapping or committing pile
// up and leave together as the next batch — one embedding pass over a single
// resource snapshot (one snapshot→map→commit cycle, via unify.BatchInstaller
// when the layer supports it), the way the journal's background fsync batches
// appends. Every submission is tracked as a Job with an observable lifecycle —
//
//	queued → mapping → deploying → deployed | failed
//	queued → canceled
//
// so a northbound API can return immediately with a job ID instead of
// pinning a connection for the whole multi-domain fan-out. The queue itself
// implements unify.Layer (Install = submit + wait), making it a drop-in
// admission stage for any existing caller.
//
// When the layer also implements unify.Sharder (the sharded-DoV resource
// orchestrator does), each batch is partitioned by shard overlap and disjoint
// groups dispatch concurrently on per-shard lanes — the global FIFO queue is
// the degenerate single-lane case of the same machinery.
//
// Scheduling is multi-tenant and weighted-fair: every submission carries a
// tenant identity (unify.RequestMeta via its context; absent = DefaultTenant)
// and lands in that tenant's sub-queue. Each batch is drawn from
// the sub-queues by deficit-weighted round-robin — a tenant with weight w
// earns w slots of credit per round, unused credit carries over while the
// tenant stays backlogged — so one tenant's elephant backlog cannot starve
// another's requests: every tenant is guaranteed its weight share of each
// batch no matter how deep a competitor's queue is. Within one tenant's
// queue, priority classes (unify.Priority) order dispatch, with
// starvation-free aging: a request queued longer than AgeAfter is promoted
// one class per elapsed interval, so even low-priority work eventually drains.
// Per-tenant queue caps bound how much backlog any tenant may park, and a
// per-tenant in-flight cap keeps its excess IN the queue (where scheduling
// still owns the order) instead of piled onto dispatch lanes. Tenants with no
// configuration get DefaultWeight and the shared caps — the zero-config
// single-tenant case degenerates to the old FIFO exactly.
package admission

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/obs"
	"github.com/unify-repro/escape/internal/unify"
)

// State is a job's position in the admission lifecycle.
type State string

// Job states. Deployed, Failed and Canceled are terminal.
const (
	// StateQueued: accepted, waiting for its lanes to go idle.
	StateQueued State = "queued"
	// StateMapping: picked up by the dispatcher; the batch is being planned
	// against a resource snapshot.
	StateMapping State = "mapping"
	// StateDeploying: the mapping committed; child deployments are in flight.
	StateDeploying State = "deploying"
	// StateDeployed: install finished successfully.
	StateDeployed State = "deployed"
	// StateFailed: rejected, crowded out, or a deployment error.
	StateFailed State = "failed"
	// StateCanceled: canceled while still queued.
	StateCanceled State = "canceled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDeployed || s == StateFailed || s == StateCanceled
}

// Errors of the admission queue.
var (
	// ErrUnknownJob is returned for job IDs the queue does not know.
	ErrUnknownJob = errors.New("admission: unknown job")
	// ErrNotCancelable is returned when canceling a job that already left the
	// queue (mapping or later).
	ErrNotCancelable = errors.New("admission: job already dispatched")
	// ErrQueueFull is returned when the queue is at capacity.
	ErrQueueFull = errors.New("admission: queue full")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("admission: queue closed")
	// ErrCanceled is the terminal error of a canceled job.
	ErrCanceled = errors.New("admission: job canceled")

	// errRolledBack is the terminal error of a deployment torn down because
	// its synchronous caller had already given up on it.
	errRolledBack = errors.New("admission: deployment rolled back: synchronous caller abandoned the install")
)

// Job is the externally visible snapshot of one submission. It is a value:
// mutating it does not affect the queue.
type Job struct {
	ID        string `json:"id"`
	ServiceID string `json:"service_id"`
	State     State  `json:"state"`
	// Tenant is the submitting party (unify.DefaultTenant when the submission
	// carried no identity); Priority its admission class within that tenant's
	// queue.
	Tenant   string         `json:"tenant,omitempty"`
	Priority unify.Priority `json:"priority,omitempty"`
	// Error is the failure reason when State is failed or canceled.
	Error string `json:"error,omitempty"`
	// Attempts is the number of mapping cycles the job's batch consumed.
	Attempts int `json:"attempts,omitempty"`
	// Batch is the size of the coalesced dispatch group the job rode in
	// (after any per-shard-lane partitioning of its batch).
	Batch   int            `json:"batch,omitempty"`
	Receipt *unify.Receipt `json:"receipt,omitempty"`
	// TraceID identifies the job's span trace (set when the queue has a
	// Tracer; adopted from the submission context when northbound ingress
	// already minted one, so recursive deployments share one ID).
	TraceID string `json:"trace_id,omitempty"`
	// Submitted/Started/Finished bound the queue wait and the deployment.
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
}

// job is the internal mutable record behind a Job snapshot.
type job struct {
	seq    uint64
	snap   Job           // guarded by Queue.mu
	req    *nffg.NFFG    // owned copy of the request
	shards []string      // estimated shard set (nil = global), fixed at submit
	err    error         // terminal error with sentinel identity preserved
	done   chan struct{} // closed exactly once on reaching a terminal state
	// dispatched marks a job popped from its tenant queue (it counts against
	// the tenant's in-flight cap until terminal). Guarded by Queue.mu.
	dispatched bool
	// root/wait are the job's open spans: root spans submit→terminal, wait
	// spans submit→dispatch. Both are dropped once the root has recorded, so
	// a finished job keeps only its TraceID and never pins a trace the
	// Tracer has evicted. Nil (and every use a no-op) when tracing is off.
	root *obs.Span
	wait *obs.Span
}

// Options tune the queue.
type Options struct {
	// MaxBatch caps how many requests coalesce into one mapping pass
	// (default 32).
	MaxBatch int
	// Window is ignored: requests coalesce only behind a busy lane, never
	// behind a timer.
	//
	// Deprecated: kept so existing callers compile.
	Window time.Duration
	// QueueCap bounds the number of queued (not yet dispatched) jobs across
	// all tenants; submissions beyond it fail with ErrQueueFull (default
	// 1024).
	QueueCap int

	// TenantWeights sets per-tenant DWRR weights: a tenant with weight w is
	// guaranteed w slots of every scheduling round for as long as it has
	// backlog. Tenants not listed get DefaultWeight.
	TenantWeights map[string]int
	// DefaultWeight is the weight of tenants without an explicit entry
	// (default 1; values < 1 are raised to 1).
	DefaultWeight int
	// TenantQueueCap bounds one tenant's queued (undispatched) jobs;
	// submissions beyond it fail with ErrQueueFull and count as that tenant's
	// drops (default: QueueCap, i.e. no per-tenant bound beyond the global
	// one).
	TenantQueueCap int
	// TenantMaxInFlight bounds how many of one tenant's jobs may be
	// dispatched (mapping or deploying) at once; its excess stays queued,
	// where the scheduler still owns the order (0 = unlimited, the default).
	TenantMaxInFlight int
	// AgeAfter is the starvation-free aging interval: a queued job is
	// scheduled one priority class higher per AgeAfter it has waited (0
	// selects the 30s default; negative disables aging).
	AgeAfter time.Duration
	// Tracer enables request tracing: every submission gets (or, when the
	// submission context already carries one, adopts) a trace whose span
	// tree covers queue wait, mapping, commit and the southbound fan-out,
	// retrievable by the job's TraceID. Nil disables tracing.
	Tracer *obs.Tracer
	// DisableFairness restores the single global FIFO: jobs dispatch in
	// strict arrival order regardless of tenant or priority (the measurable
	// baseline for BenchmarkE10FairAdmission). Tenant accounting and the
	// in-flight cap still apply — in FIFO order an over-cap tenant at the head
	// of the line blocks everyone behind it, which is exactly the behavior
	// the weighted scheduler exists to fix.
	DisableFairness bool

	// Journal, when set, write-ahead-logs every admission (with the request
	// graph) and every terminal transition, so queued jobs survive a crash
	// and are re-enqueued at startup (see Resume). Append failures never
	// fail the submission — they are logged and counted in
	// Stats.JournalErrors.
	Journal JobJournal
}

// retention bounds how many finished jobs stay queryable; the oldest terminal
// jobs are evicted beyond it.
const retention = 4096

func (o *Options) defaults() {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 1024
	}
	if o.DefaultWeight < 1 {
		o.DefaultWeight = 1
	}
	if o.TenantQueueCap <= 0 {
		o.TenantQueueCap = o.QueueCap
	}
	if o.AgeAfter == 0 {
		o.AgeAfter = 30 * time.Second
	} else if o.AgeAfter < 0 {
		o.AgeAfter = 0 // disabled
	}
}

// weightOf resolves one tenant's DWRR weight.
func (o *Options) weightOf(tenant string) int {
	if w, ok := o.TenantWeights[tenant]; ok && w >= 1 {
		return w
	}
	return o.DefaultWeight
}

// Stats are the queue's cumulative counters and current gauges.
type Stats struct {
	// Depth is the current number of queued (undispatched) jobs; MaxDepth
	// the deepest backlog observed.
	Depth    int `json:"depth"`
	MaxDepth int `json:"max_depth"`
	// Submitted/Deployed/Failed/Canceled count jobs by outcome.
	Submitted uint64 `json:"submitted"`
	Deployed  uint64 `json:"deployed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	// Batches counts dispatch cycles; Coalesced the requests they carried
	// (Coalesced/Batches = mean batch size); MaxBatch the largest observed.
	Batches   uint64 `json:"batches"`
	Coalesced uint64 `json:"coalesced"`
	MaxBatch  int    `json:"max_batch"`
	// Shards carries per-shard queue gauges when the layer implements
	// unify.Sharder: jobs and dispatch groups are attributed to every shard
	// in their estimated set; jobs whose set could not be narrowed count
	// under GlobalShard.
	Shards map[string]ShardQueueStats `json:"shards,omitempty"`
	// Tenants carries per-tenant scheduling counters, keyed by tenant name.
	// The population is bounded: beyond maxIdleTenants, idle unweighted
	// tenants are reclaimed and their per-tenant counters dropped (the
	// queue-level totals above keep counting them).
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
	// Resumed counts jobs recovered from the journal at startup: requeued
	// ones re-dispatched plus reconciled ones finished directly (see Resume).
	Resumed uint64 `json:"resumed"`
	// PausedShards is the number of shard lanes currently paused (see
	// PauseShards — the fleet controller pauses an evicting domain's lane);
	// queued jobs targeting them stay queued. Reestimated counts queued jobs
	// whose shard estimate was refreshed after a pause lifted.
	PausedShards int    `json:"paused_shards"`
	Reestimated  uint64 `json:"reestimated"`
	// JournalErrors counts failed job-WAL appends (durability degraded; the
	// queue keeps serving).
	JournalErrors uint64 `json:"journal_errors"`
}

// TenantStats are one tenant's admission counters and gauges.
type TenantStats struct {
	// Weight is the tenant's DWRR weight; Depth its current queued backlog
	// (MaxDepth the deepest observed); InFlight its dispatched, not yet
	// terminal jobs.
	Weight   int `json:"weight"`
	Depth    int `json:"depth"`
	MaxDepth int `json:"max_depth"`
	InFlight int `json:"in_flight"`
	// Submitted/Deployed/Failed/Canceled count the tenant's jobs by outcome;
	// Admitted counts jobs dispatched into a batch; Dropped counts
	// submissions rejected at intake (global or per-tenant queue cap).
	Submitted uint64 `json:"submitted"`
	Admitted  uint64 `json:"admitted"`
	Deployed  uint64 `json:"deployed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	Dropped   uint64 `json:"dropped"`
	// Aged counts jobs dispatched above their base priority class (the
	// starvation-free aging promotion fired).
	Aged uint64 `json:"aged"`
	// WaitTotal accumulates queue wait (submit → dispatch) over WaitCount
	// dispatched jobs; WaitMax is the longest single wait.
	WaitTotal time.Duration `json:"wait_total_ns"`
	WaitCount uint64        `json:"wait_count"`
	WaitMax   time.Duration `json:"wait_max_ns"`
}

// MeanWait is the tenant's mean queue wait (0 before the first dispatch).
func (t TenantStats) MeanWait() time.Duration {
	if t.WaitCount == 0 {
		return 0
	}
	return t.WaitTotal / time.Duration(t.WaitCount)
}

// GlobalShard is the Stats.Shards key for jobs that touch every shard (an
// unpinned request, or a layer without sharding).
const GlobalShard = "*"

// ShardQueueStats are one shard's admission gauges.
type ShardQueueStats struct {
	// Depth is the number of queued jobs whose shard set includes this shard.
	Depth int `json:"depth"`
	// Batches counts dispatch groups that included this shard; Coalesced the
	// jobs those groups carried.
	Batches   uint64 `json:"batches"`
	Coalesced uint64 `json:"coalesced"`
}

// Queue is the admission stage. Create with New, stop with Close.
type Queue struct {
	layer   unify.Layer
	batch   unify.BatchInstaller // nil: fall back to per-request Install
	sharder unify.Sharder        // nil: every job is global (one serialized lane)
	opts    Options

	ctx    context.Context
	cancel context.CancelFunc
	wake   chan struct{}
	exited chan struct{}

	inflight    sync.WaitGroup // deployments handed off by the dispatcher
	dispatching sync.WaitGroup // shard-group dispatch goroutines in flight

	// Stage latency histograms: queue wait (submit→dispatch) and end-to-end
	// admission-to-deployed. Lock-free; snapshot via StageHistograms.
	histWait obs.Histogram
	histE2E  obs.Histogram

	mu     sync.Mutex
	closed bool
	seq    uint64
	jobs   map[string]*job
	// Per-tenant sub-queues: every queued job lives in exactly one tenant's
	// class FIFO. order is the round-robin rotation of tenant names (append-
	// only: an idle tenant keeps its slot, its empty queue is just skipped);
	// depth is the total queued count across tenants.
	tenants  map[string]*tenantQueue
	order    []string
	rrPos    int
	depth    int
	finished []*job // terminal jobs in completion order (retention ring)
	stats    Stats
	// paused marks shard lanes whose queued jobs must not dispatch (an
	// evicting domain, see PauseShards). Jobs stay in their tenant queues —
	// the scheduler skips them in place — so a resume restores the original
	// fairness order with no requeue churn.
	paused map[string]bool
	// busy marks shard lanes with a group mapping or committing (GlobalShard:
	// a global group holds every lane). Queued jobs on a busy lane wait where
	// paused ones do and leave together as the lane's next batch, so
	// same-lane groups never overlap — the zero-conflict guarantee batching
	// gives the layer below — while disjoint lanes map concurrently.
	busy map[string]bool
}

// tenantQueue is one tenant's admission sub-queue: a FIFO per priority class
// plus the tenant's DWRR credit and counters. Guarded by Queue.mu.
type tenantQueue struct {
	name   string
	weight int
	// deficit is the tenant's unspent scheduling credit: popLocked adds
	// weight per round a backlogged tenant participates in and spends 1 per
	// dispatched job. It resets when the queue empties, so idle tenants do
	// not bank credit.
	deficit int
	// classes holds queued jobs FIFO per priority rank (index =
	// unify.Priority.Rank()); depth is their total.
	classes  [unify.NumPriorities][]*job
	depth    int
	inFlight int
	stats    TenantStats
}

func (tq *tenantQueue) push(j *job) {
	tq.classes[j.snap.Priority.Rank()] = append(tq.classes[j.snap.Priority.Rank()], j)
	tq.depth++
	if tq.depth > tq.stats.MaxDepth {
		tq.stats.MaxDepth = tq.depth
	}
}

// removeAt dequeues the job at index i of class c. The vacated slot is
// cleared so the backing array does not pin the job (and its request graph)
// after it left the queue, and a drained class drops its array: a daemon's
// burst peak must not stay allocated forever.
func (tq *tenantQueue) removeAt(c, i int) *job {
	cls := tq.classes[c]
	j := cls[i]
	copy(cls[i:], cls[i+1:])
	cls[len(cls)-1] = nil
	tq.classes[c] = cls[:len(cls)-1]
	if len(cls) == 1 {
		tq.classes[c] = nil
	}
	tq.depth--
	return j
}

// effectiveRank is a queued job's scheduling rank after aging: one class per
// ageAfter waited beyond its base class, capped at the highest class.
// ageAfter <= 0 disables aging.
func effectiveRank(j *job, now time.Time, ageAfter time.Duration) int {
	r := j.snap.Priority.Rank()
	if ageAfter > 0 {
		if steps := int(now.Sub(j.snap.Submitted) / ageAfter); steps > 0 {
			r += steps
		}
	}
	if r > unify.NumPriorities-1 {
		r = unify.NumPriorities - 1
	}
	return r
}

// next locates the tenant's next job among those eligible accepts (nil
// accepts any job; busy or paused lanes restrict it) and returns its class,
// its index in that class and its effective rank, or class -1 when no job
// qualifies. In FIFO order (fifo) the earliest submission wins, whatever its
// class. Otherwise the highest effective rank (aging included) wins, the
// oldest submission first on rank ties. The age tie-break is what makes
// aging starvation-free: a low-priority job promoted to the top rank is by
// construction older than the fresh natives it now ties with, so it wins — a
// steady high-priority stream cannot hold it off forever. Within one class
// the first eligible job is both the oldest and the most-aged eligible one,
// so only that candidate per class needs comparing.
func (tq *tenantQueue) next(eligible func(*job) bool, fifo bool, now time.Time, ageAfter time.Duration) (class, idx, rank int) {
	class, idx, rank = -1, -1, -1
	var best *job
	for c := unify.NumPriorities - 1; c >= 0; c-- {
		for i, j := range tq.classes[c] {
			if eligible != nil && !eligible(j) {
				continue
			}
			r := effectiveRank(j, now, ageAfter)
			if best == nil || fifo && j.seq < best.seq ||
				!fifo && (r > rank || r == rank && j.snap.Submitted.Before(best.snap.Submitted)) {
				best, class, idx, rank = j, c, i, r
			}
			break
		}
	}
	return class, idx, rank
}

// New builds a queue in front of layer and starts its dispatcher. When the
// layer implements unify.BatchInstaller (core.ResourceOrchestrator does),
// whole batches are admitted in one snapshot→map→commit cycle; otherwise
// batch members are installed individually (still serialized through the
// queue, which bounds concurrent mapping pressure on the layer). When the
// layer also implements unify.Sharder, each batch is partitioned by shard
// overlap and disjoint groups are dispatched concurrently — the global queue
// is the single-shard degenerate case of the same machinery.
func New(layer unify.Layer, opts Options) *Queue {
	opts.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		layer:   layer,
		opts:    opts,
		ctx:     ctx,
		cancel:  cancel,
		wake:    make(chan struct{}, 1),
		exited:  make(chan struct{}),
		busy:    map[string]bool{},
		jobs:    map[string]*job{},
		tenants: map[string]*tenantQueue{},
	}
	// Pre-create explicitly weighted tenants so their configuration shows in
	// Stats before their first submission.
	for name := range opts.TenantWeights {
		q.tenantLocked(name)
	}
	if bi, ok := layer.(unify.BatchInstaller); ok {
		q.batch = bi
	}
	if sh, ok := layer.(unify.Sharder); ok {
		q.sharder = sh
	}
	go q.run()
	return q
}

// Close stops the dispatcher. Queued jobs are canceled; jobs already
// dispatched finish (their installs run on a context that Close cancels, so
// they terminate promptly with a context error).
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		<-q.exited
		return
	}
	q.closed = true
	q.mu.Unlock()
	q.cancel()
	q.nudge()
	<-q.exited
}

// tenantLocked returns (creating on first use) one tenant's sub-queue.
// Callers hold q.mu (or, during New, have exclusive ownership).
func (q *Queue) tenantLocked(name string) *tenantQueue {
	tq, ok := q.tenants[name]
	if !ok {
		tq = &tenantQueue{name: name, weight: q.opts.weightOf(name)}
		tq.stats.Weight = tq.weight
		q.tenants[name] = tq
		q.order = append(q.order, name)
	}
	return tq
}

// maxIdleTenants bounds the tenant population the queue keeps scheduler
// state (and counters) for. Tenant names arrive from the network, so without
// a bound an attacker cycling names would grow q.tenants — and the rotation
// every scheduling round scans — forever.
const maxIdleTenants = 256

// reclaimTenantLocked drops one idle tenant's scheduler state once the
// population exceeds maxIdleTenants. Explicitly weighted tenants are never
// reclaimed; a reclaimed tenant's per-tenant counters are lost (the
// queue-level totals remain), and it simply re-registers at its next
// submission. Callers hold q.mu.
func (q *Queue) reclaimTenantLocked(tq *tenantQueue) {
	if len(q.tenants) <= maxIdleTenants || tq.depth != 0 || tq.inFlight != 0 {
		return
	}
	if _, configured := q.opts.TenantWeights[tq.name]; configured {
		return
	}
	delete(q.tenants, tq.name)
	kept := q.order[:0]
	for _, n := range q.order {
		if n != tq.name {
			kept = append(kept, n)
		}
	}
	q.order = kept
	if len(q.order) > 0 {
		q.rrPos %= len(q.order)
	} else {
		q.rrPos = 0
	}
}

// Submit enqueues a request and returns the job snapshot immediately. The
// context bounds only the enqueue — and carries the submission's tenant
// identity and priority (unify.WithMeta; absent meta lands in
// unify.DefaultTenant at normal priority). The deployment itself runs on the
// queue's lifecycle context (use Wait, or the job's terminal state, for
// completion).
func (q *Queue) Submit(ctx context.Context, req *nffg.NFFG) (Job, error) {
	if err := ctx.Err(); err != nil {
		return Job{}, err
	}
	if req == nil || req.ID == "" {
		return Job{}, fmt.Errorf("%w: request needs an ID", unify.ErrRejected)
	}
	meta := unify.MetaFrom(ctx).Normalize()
	var shards []string
	if q.sharder != nil {
		shards = q.sharder.ShardSet(req)
	}
	// Adopt the trace riding the submission context (northbound ingress
	// minted it from X-Unify-Trace), else mint one when tracing is on.
	trace := obs.TraceFrom(ctx)
	if trace == nil {
		trace = q.opts.Tracer.Trace("") // nil tracer → nil trace: tracing off
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return Job{}, ErrClosed
	}
	if q.depth >= q.opts.QueueCap {
		// Attribute the drop when the tenant is already known, but do not
		// materialize scheduler state for a submission rejected at the global
		// cap — tenant names arrive from the network, and a full queue must
		// not be a vector for growing q.tenants without bound.
		if tq, ok := q.tenants[meta.Tenant]; ok {
			tq.stats.Dropped++
		}
		q.mu.Unlock()
		return Job{}, fmt.Errorf("%w: %d jobs queued", ErrQueueFull, q.opts.QueueCap)
	}
	tq := q.tenantLocked(meta.Tenant)
	if tq.depth >= q.opts.TenantQueueCap {
		tq.stats.Dropped++
		q.mu.Unlock()
		return Job{}, fmt.Errorf("%w: tenant %s has %d jobs queued", ErrQueueFull, meta.Tenant, q.opts.TenantQueueCap)
	}
	if !req.Sealed() {
		// The caller may still write its graph: keep a private copy, sealed
		// like the one the northbound server decodes, since nothing writes it.
		req = req.Copy().Seal()
	}
	q.seq++
	j := &job{
		seq:    q.seq,
		req:    req,
		shards: shards,
		snap: Job{
			ID:        fmt.Sprintf("job-%d", q.seq),
			ServiceID: req.ID,
			Tenant:    meta.Tenant,
			Priority:  meta.Priority,
			TraceID:   trace.ID(),
			Submitted: time.Now(),
		},
		done: make(chan struct{}),
	}
	q.enqueueLocked(j, tq, trace, false)
	q.journalLocked(j)
	snap := j.snap
	q.mu.Unlock()
	q.nudge()
	return snap, nil
}

// enqueueLocked is the one way into a tenant's queue: it registers j as
// queued, opens its job span in trace (marked resumed for a job recovered
// from the journal) and its admission.wait span, and counts the submission
// on the queue's and the tenant's books. Callers hold q.mu.
func (q *Queue) enqueueLocked(j *job, tq *tenantQueue, trace *obs.Trace, resumed bool) {
	attrs := [...]string{"job", j.snap.ID, "service", j.snap.ServiceID, "tenant", j.snap.Tenant, "resumed", "true"}
	n := len(attrs) - 2
	if resumed {
		n = len(attrs)
	}
	j.snap.State = StateQueued
	j.root = trace.StartSpan(nil, "job", attrs[:n]...)
	j.wait = trace.StartSpan(j.root, "admission.wait")
	q.jobs[j.snap.ID] = j
	tq.push(j)
	tq.stats.Submitted++
	q.depth++
	q.stats.Submitted++
	if q.depth > q.stats.MaxDepth {
		q.stats.MaxDepth = q.depth
	}
}

// Job returns a job snapshot by ID.
func (q *Queue) Job(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.snap, nil
}

// Jobs lists all known jobs in submission order.
func (q *Queue) Jobs() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.jobs))
	seqs := make([]*job, 0, len(q.jobs))
	for _, j := range q.jobs {
		seqs = append(seqs, j)
	}
	sort.Slice(seqs, func(i, k int) bool { return seqs[i].seq < seqs[k].seq })
	for _, j := range seqs {
		out = append(out, j.snap)
	}
	return out
}

// Wait blocks until the job reaches a terminal state or the context is done.
// On a context error the job's current snapshot is returned alongside it.
func (q *Queue) Wait(ctx context.Context, id string) (Job, error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	select {
	case <-j.done:
		q.mu.Lock()
		defer q.mu.Unlock()
		return j.snap, nil
	case <-ctx.Done():
		q.mu.Lock()
		defer q.mu.Unlock()
		return j.snap, ctx.Err()
	}
}

// Cancel aborts a job that is still queued. Jobs already mapping or deploying
// cannot be canceled (ErrNotCancelable).
func (q *Queue) Cancel(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.snap.State != StateQueued {
		return fmt.Errorf("%w: %s is %s", ErrNotCancelable, id, j.snap.State)
	}
	if tq, ok := q.tenants[j.snap.Tenant]; ok {
		c := j.snap.Priority.Rank()
		for i, p := range tq.classes[c] {
			if p == j {
				tq.removeAt(c, i)
				q.depth--
				break
			}
		}
	}
	q.terminateLocked(j, StateCanceled, nil, ErrCanceled)
	return nil
}

// Stats returns the queue's counters; Depth reflects the current backlog and
// Tenants the per-tenant scheduling state.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.stats
	st.Depth = q.depth
	st.Shards = make(map[string]ShardQueueStats, len(q.stats.Shards))
	for k, v := range q.stats.Shards {
		v.Depth = 0
		st.Shards[k] = v
	}
	st.Tenants = make(map[string]TenantStats, len(q.tenants))
	for name, tq := range q.tenants {
		ts := tq.stats
		ts.Depth = tq.depth
		ts.InFlight = tq.inFlight
		st.Tenants[name] = ts
		for _, c := range tq.classes {
			for _, j := range c {
				for _, k := range shardLabels(j) {
					s := st.Shards[k]
					s.Depth++
					st.Shards[k] = s
				}
			}
		}
	}
	return st
}

// StageHistograms returns the queue's latency distributions by stage name:
// "admission_wait" (submit → dispatch) and "e2e" (submit → deployed,
// successful jobs only).
func (q *Queue) StageHistograms() map[string]obs.HistogramSnapshot {
	return map[string]obs.HistogramSnapshot{
		"admission_wait": q.histWait.Snapshot(),
		"e2e":            q.histE2E.Snapshot(),
	}
}

// Tracer returns the queue's tracer (nil when tracing is off).
func (q *Queue) Tracer() *obs.Tracer { return q.opts.Tracer }

// shardLabels returns the stat keys a job counts under: its estimated shard
// set, or GlobalShard when the set could not be narrowed.
func shardLabels(j *job) []string {
	if len(j.shards) == 0 {
		return []string{GlobalShard}
	}
	return j.shards
}

// --- unify.Layer -------------------------------------------------------------

// ID implements unify.Layer (the queue is transparent: it names its layer).
func (q *Queue) ID() string { return q.layer.ID() }

// View implements unify.Layer.
func (q *Queue) View(ctx context.Context) (*nffg.NFFG, error) { return q.layer.View(ctx) }

// Install implements unify.Layer: submit + wait, so synchronous callers ride
// the same coalescing batches as async ones. A caller that gives up while
// the job is still queued cancels it; one that gives up after dispatch
// cannot abort the shared batch mid-flight — instead a deployment that
// completes anyway is rolled back in the background, preserving the Install
// contract that an observed failure installs nothing.
func (q *Queue) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	snap, err := q.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	done, err := q.Wait(ctx, snap.ID)
	if err != nil {
		if cerr := q.Cancel(snap.ID); cerr != nil {
			go q.rollbackAbandoned(snap.ID, req.ID)
		}
		return nil, err
	}
	if done.State == StateDeployed {
		return done.Receipt, nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[snap.ID]; ok {
		return nil, j.err
	}
	return nil, fmt.Errorf("%w: job %s: %s", unify.ErrRejected, snap.ID, done.Error)
}

// rollbackAbandoned waits for an abandoned synchronous install's job to
// finish and tears the service down if it deployed: its caller already
// observed a failure.
func (q *Queue) rollbackAbandoned(jobID, serviceID string) {
	q.mu.Lock()
	j, ok := q.jobs[jobID]
	q.mu.Unlock()
	if !ok {
		return
	}
	select {
	case <-j.done:
	case <-q.ctx.Done():
		return
	}
	q.mu.Lock()
	deployed := j.snap.State == StateDeployed
	q.mu.Unlock()
	if !deployed {
		return
	}
	if err := q.layer.Remove(context.WithoutCancel(q.ctx), serviceID); err != nil {
		log.Printf("admission %s: rollback of abandoned install %s: %v", q.ID(), serviceID, err)
		return
	}
	// Keep the job record honest, live and in the journal: the service no
	// longer exists, so the job must not read as a deployment.
	q.mu.Lock()
	if j.snap.State == StateDeployed {
		q.terminateLocked(j, StateFailed, nil, errRolledBack)
	}
	q.mu.Unlock()
}

// Remove implements unify.Layer (pass-through: teardown is not batched).
func (q *Queue) Remove(ctx context.Context, serviceID string) error {
	return q.layer.Remove(ctx, serviceID)
}

// Services implements unify.Layer.
func (q *Queue) Services() []string { return q.layer.Services() }

// --- dispatcher --------------------------------------------------------------

// run is the dispatcher: on every wake (an arrival, a lane going idle, a
// freed in-flight slot, a lifted pause) it admits every queued job whose
// lanes are idle. Each batch is partitioned by shard overlap and a group
// holds its lanes busy while MAPPING — that per-lane serialization is what
// collapses generation conflicts on the layer below, and what the lane's next
// arrivals coalesce behind — while groups on disjoint lanes map concurrently,
// and deployments are handed off (see process), so a slow child never blocks
// admission head-of-line.
func (q *Queue) run() {
	defer close(q.exited)
	for {
		select {
		case <-q.ctx.Done():
			q.dispatching.Wait()
			q.drain()
			q.inflight.Wait()
			return
		case <-q.wake:
		}
		for groups := q.take(); len(groups) > 0; groups = q.take() {
			for _, g := range groups {
				q.dispatching.Add(1)
				go func(g jobGroup) {
					defer q.dispatching.Done()
					q.process(g.jobs)
					q.release(g.keys)
				}(g)
			}
		}
	}
}

// jobGroup is one shard-connected component of a batch and the lanes it
// holds: [GlobalShard] for the global group (jobs whose shard set could not
// be narrowed, plus everything they overlap — which is every shard).
type jobGroup struct {
	jobs []*job
	keys []string
}

// partitionByShards splits a batch into connected components of overlapping
// shard sets via unify.GroupShardSets (the one union-find shared with the
// orchestrator's batch partitioning). Jobs with a nil set are global: they
// (and everything else in the batch) collapse into one group, which is also
// the behavior for layers without sharding — the degenerate single-lane
// queue.
func partitionByShards(batch []*job) []jobGroup {
	sets := make([][]string, len(batch))
	for i, j := range batch {
		sets[i] = j.shards
	}
	groups, keys := unify.GroupShardSets(sets)
	out := make([]jobGroup, len(groups))
	for gi, g := range groups {
		for _, i := range g {
			out[gi].jobs = append(out[gi].jobs, batch[i])
		}
		out[gi].keys = keys[gi]
		if len(out[gi].keys) == 0 {
			out[gi].keys = []string{GlobalShard}
		}
	}
	return out
}

// release marks a group's lanes idle once its mapping committed and wakes
// the dispatcher: whatever piled up behind them leaves as the next batch.
func (q *Queue) release(keys []string) {
	q.mu.Lock()
	for _, k := range keys {
		delete(q.busy, k)
	}
	q.mu.Unlock()
	q.nudge()
}

// nudge wakes the dispatcher (non-blocking; spurious wakes are cheap).
func (q *Queue) nudge() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// take draws the next batch — up to MaxBatch jobs whose lanes are idle, from
// the tenant sub-queues by deficit-weighted round-robin (popLocked) — and
// marks its groups' lanes busy. No timer: a job on an idle lane leaves at
// once; one behind a busy lane stays queued (cancelable, its wait counting)
// until that lane's release wakes the dispatcher.
func (q *Queue) take() []jobGroup {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil // drain() in run() handles the backlog
	}
	batch := q.popLocked(q.opts.MaxBatch)
	if len(batch) == 0 {
		// Nothing eligible: its lanes are busy or paused, or every backlogged
		// tenant is at its in-flight cap. Whatever frees them wakes the
		// dispatcher to retry.
		return nil
	}
	now := time.Now()
	for _, j := range batch {
		j.snap.State = StateMapping
		j.snap.Started = now
		j.dispatched = true
		tq := q.tenants[j.snap.Tenant]
		tq.inFlight++
		tq.stats.Admitted++
		wait := now.Sub(j.snap.Submitted)
		tq.stats.WaitTotal += wait
		tq.stats.WaitCount++
		if wait > tq.stats.WaitMax {
			tq.stats.WaitMax = wait
		}
		q.histWait.Observe(wait)
		j.wait.End()
	}
	q.stats.Batches++
	q.stats.Coalesced += uint64(len(batch))
	if len(batch) > q.stats.MaxBatch {
		q.stats.MaxBatch = len(batch)
	}
	if q.stats.Shards == nil {
		q.stats.Shards = map[string]ShardQueueStats{}
	}
	groups := partitionByShards(batch)
	for _, g := range groups {
		// Stamp each job with the size of the group it actually rides (the
		// batch may split into smaller per-lane groups), attribute the group
		// to its shards' gauges, and hold its lanes.
		for _, j := range g.jobs {
			j.snap.Batch = len(g.jobs)
		}
		for _, k := range g.keys {
			q.busy[k] = true
			s := q.stats.Shards[k]
			s.Batches++
			s.Coalesced += uint64(len(g.jobs))
			q.stats.Shards[k] = s
		}
	}
	return groups
}

// eligibleLocked returns which queued jobs may dispatch under the current
// pause and busy sets, or nil when nothing restricts dispatch. A shard job
// waits while any of its lanes is paused or busy; a global job (nil set — it
// may touch any shard) needs every lane idle and nothing paused. While a
// global job waits for busy lanes, no new shard group starts either, so a
// stream of shard groups cannot starve it. Callers hold q.mu.
func (q *Queue) eligibleLocked() func(*job) bool {
	if len(q.paused) == 0 && len(q.busy) == 0 {
		return nil
	}
	hold := q.busy[GlobalShard] || len(q.paused) == 0 && q.globalQueuedLocked()
	return func(j *job) bool {
		if len(j.shards) == 0 {
			return len(q.paused) == 0 && len(q.busy) == 0
		}
		if hold {
			return false
		}
		for _, k := range j.shards {
			if q.paused[k] || q.busy[k] {
				return false
			}
		}
		return true
	}
}

// globalQueuedLocked reports whether a global job is queued. Callers hold
// q.mu.
func (q *Queue) globalQueuedLocked() bool {
	for _, tq := range q.tenants {
		for _, cls := range tq.classes {
			for _, j := range cls {
				if len(j.shards) == 0 {
					return true
				}
			}
		}
	}
	return false
}

// PauseShards stops dispatching queued jobs whose estimated shard set
// intersects keys; global jobs (whose set could not be narrowed) pause too.
// Jobs already dispatched are unaffected; paused jobs keep their queue
// positions and remain cancelable. Idempotent. The fleet controller pauses an
// evicting domain's lane for the duration of the failover re-embedding.
func (q *Queue) PauseShards(keys []string) {
	q.mu.Lock()
	if q.paused == nil {
		q.paused = map[string]bool{}
	}
	for _, k := range keys {
		q.paused[k] = true
	}
	q.stats.PausedShards = len(q.paused)
	q.mu.Unlock()
}

// ResumeShards lifts the pause on keys and wakes the dispatcher. Queued jobs
// whose shard estimate was made against the pre-pause fleet (it intersected a
// resumed key, or could not be narrowed) are re-estimated, so they dispatch
// against the post-failover shard layout instead of a dead lane.
func (q *Queue) ResumeShards(keys []string) {
	resumed := make(map[string]bool, len(keys))
	for _, k := range keys {
		resumed[k] = true
	}
	q.mu.Lock()
	for _, k := range keys {
		delete(q.paused, k)
	}
	q.stats.PausedShards = len(q.paused)
	if q.sharder != nil {
		for _, tq := range q.tenants {
			for c := range tq.classes {
				for _, j := range tq.classes[c] {
					stale := len(j.shards) == 0
					for _, k := range j.shards {
						if resumed[k] {
							stale = true
							break
						}
					}
					if stale {
						j.shards = q.sharder.ShardSet(j.req)
						q.stats.Reestimated++
					}
				}
			}
		}
	}
	q.mu.Unlock()
	q.nudge()
}

// atCapLocked reports whether a tenant has exhausted its in-flight budget,
// counting jobs already drawn into the current (not yet dispatched) batch.
func (q *Queue) atCapLocked(tq *tenantQueue, popped map[*tenantQueue]int) bool {
	return q.opts.TenantMaxInFlight > 0 &&
		tq.inFlight+popped[tq] >= q.opts.TenantMaxInFlight
}

// popLocked draws up to max jobs whose lanes are idle (eligibleLocked) from
// the tenant sub-queues. Callers hold q.mu.
//
// Fair mode (the default) is deficit-weighted round-robin over the tenant
// rotation: each round, every tenant with an eligible job earns its weight in
// credit and dequeues (priority-and-aging order, see tenantQueue.next) while
// it has credit; unspent credit carries over while the tenant stays
// backlogged — the "deficit" that makes the long-run share converge to the
// weight ratio even when MaxBatch is smaller than one full round — and resets
// when its queue drains. Tenants at their in-flight cap, or whose jobs all
// wait on busy or paused lanes, are skipped (earning nothing: a blocked
// tenant is not entitled to a catch-up burst). The rotation start advances
// once per batch so the same tenant does not lead every batch.
//
// FIFO mode (Options.DisableFairness) dispatches in strict global arrival
// order; an over-cap tenant at the head of the line blocks everyone behind it
// — the baseline head-of-line behavior the weighted scheduler exists to fix.
func (q *Queue) popLocked(max int) []*job {
	var batch []*job
	popped := map[*tenantQueue]int{}
	eligible := q.eligibleLocked()
	now := time.Now()
	if q.opts.DisableFairness {
		for len(batch) < max {
			var best *tenantQueue
			bc, bi := -1, -1
			for _, name := range q.order {
				tq := q.tenants[name]
				c, i, _ := tq.next(eligible, true, now, 0)
				if c >= 0 && (best == nil || tq.classes[c][i].seq < best.classes[bc][bi].seq) {
					best, bc, bi = tq, c, i
				}
			}
			if best == nil || q.atCapLocked(best, popped) {
				break
			}
			q.depth--
			popped[best]++
			batch = append(batch, best.removeAt(bc, bi))
		}
		return batch
	}
	for len(batch) < max {
		progress := false
		n := len(q.order)
		for k := 0; k < n && len(batch) < max; k++ {
			tq := q.tenants[q.order[(q.rrPos+k)%n]]
			if tq.depth == 0 {
				tq.deficit = 0
				continue
			}
			if c, _, _ := tq.next(eligible, false, now, q.opts.AgeAfter); c < 0 || q.atCapLocked(tq, popped) {
				continue
			}
			tq.deficit += tq.weight
			// Bound banked credit: a tenant starved of batch space for many
			// batches may catch up, but never by more than one batch plus
			// one round at once.
			if limit := tq.weight + max; tq.deficit > limit {
				tq.deficit = limit
			}
			for tq.deficit > 0 && len(batch) < max && !q.atCapLocked(tq, popped) {
				c, i, rank := tq.next(eligible, false, now, q.opts.AgeAfter)
				if c < 0 {
					break // only jobs on busy or paused lanes left in this tenant's queue
				}
				if rank > c {
					tq.stats.Aged++
				}
				tq.deficit--
				q.depth--
				popped[tq]++
				batch = append(batch, tq.removeAt(c, i))
				progress = true
			}
			if tq.depth == 0 {
				tq.deficit = 0
			}
		}
		if !progress {
			break
		}
	}
	if n := len(q.order); n > 0 && len(batch) > 0 {
		q.rrPos = (q.rrPos + 1) % n
	}
	return batch
}

// process admits one batch through the layer. It returns as soon as the
// batch's mapping is committed (or the whole batch rejected): the child
// deployments continue in a handed-off goroutine, overlapping with the next
// batch's mapping instead of blocking admission behind a slow child.
func (q *Queue) process(batch []*job) {
	reqs := make([]*nffg.NFFG, len(batch))
	roots := make([]*obs.Span, len(batch))
	for i, j := range batch {
		reqs[i] = j.req
		roots[i] = j.root
	}
	// The positional trace set rides the dispatch context: trace i belongs
	// to reqs[i], and stage spans recorded below (group partition, map,
	// commit, child fan-out) nest under each job's root span.
	dctx := obs.ContextWithSpans(q.ctx, roots...)
	if q.batch == nil {
		// Fallback for plain layers: no shared snapshot, so batch members
		// install individually — in parallel within the batch, but at most
		// one batch at a time, which bounds the concurrent mapping pressure
		// on the layer (the serialization New documents). Each job still
		// finishes individually.
		var wg sync.WaitGroup
		for _, j := range batch {
			wg.Add(1)
			go func(j *job) {
				defer wg.Done()
				q.setState(j, StateDeploying)
				receipt, err := q.layer.Install(obs.ContextWithSpans(q.ctx, j.root), j.req)
				q.finishJob(j, receipt, err, 0)
			}(j)
		}
		wg.Wait()
		return
	}
	committed := make(chan struct{})
	var once sync.Once
	markCommitted := func() { once.Do(func() { close(committed) }) }
	q.inflight.Add(1)
	go func() {
		defer q.inflight.Done()
		observer := unify.BatchObserver{
			Admitted: func(i int) {
				markCommitted()
				q.setState(batch[i], StateDeploying)
			},
			// Per-request completion: one slow batch member must not delay
			// its peers' terminal states (finishJob ignores already-terminal
			// jobs, so the sweep below stays safe).
			Done: func(i int, o unify.BatchOutcome) {
				q.finishJob(batch[i], o.Receipt, o.Err, o.Attempts)
			},
		}
		outs := q.batch.InstallBatch(dctx, reqs, observer)
		// Defensive sweep for implementations that miss a Done callback.
		for i, o := range outs {
			q.finishJob(batch[i], o.Receipt, o.Err, o.Attempts)
		}
		markCommitted() // fully rejected batches never report an admission
	}()
	<-committed
}

// drain cancels everything still queued when the queue shuts down.
func (q *Queue) drain() {
	q.mu.Lock()
	defer q.mu.Unlock()
	err := fmt.Errorf("%w: %v", ErrCanceled, ErrClosed)
	for _, tq := range q.tenants {
		for c := range tq.classes {
			for _, j := range tq.classes[c] {
				q.terminateLocked(j, StateCanceled, nil, err)
			}
			tq.classes[c] = nil
		}
		tq.depth = 0
		tq.deficit = 0
	}
	q.depth = 0
}

func (q *Queue) setState(j *job, s State) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !j.snap.State.Terminal() {
		j.snap.State = s
	}
}

// finishJob records a dispatched job's outcome. Already-terminal jobs are
// left untouched, so per-request Done callbacks and the batch-level sweep
// compose without double counting.
func (q *Queue) finishJob(j *job, receipt *unify.Receipt, err error, attempts int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j.snap.State.Terminal() {
		return
	}
	j.snap.Attempts = attempts
	to := StateDeployed
	switch {
	case errors.Is(err, ErrCanceled):
		to = StateCanceled
	case err != nil:
		to = StateFailed
	}
	q.terminateLocked(j, to, receipt, err)
}

// terminateLocked is the one door into, and between, terminal states. It
// moves j to state to with its receipt or its error, moves it on the
// queue's and the tenant's books off the state it leaves and onto the one it
// enters, drops the request graph and shard set nothing reads any more, and
// journals the terminal record. On a job's first terminal state it also ends
// and drops its spans, observes a deployment's end-to-end latency, frees its
// in-flight slot, closes done and puts the job on the retention ring. A job
// with no state yet is recovered history (Resume): it enters the books here,
// keeps its recorded finish time, and is neither observed nor journaled —
// Resume rewrites the journal once it has loaded every plan. Callers hold
// q.mu and decide whether the move is legal.
func (q *Queue) terminateLocked(j *job, to State, receipt *unify.Receipt, err error) {
	from := j.snap.State
	j.snap.State, j.snap.Receipt, j.snap.Error, j.err = to, receipt, "", err
	if err != nil {
		j.snap.Error = err.Error()
	}
	if j.snap.Finished.IsZero() {
		j.snap.Finished = time.Now()
	}
	j.req, j.shards = nil, nil
	tq := q.tenants[j.snap.Tenant]
	var gone TenantStats // a reclaimed tenant's counters are not kept
	ts := &gone
	if tq != nil {
		ts = &tq.stats
	}
	if from == "" {
		q.stats.Submitted++
		ts.Submitted++
	}
	if n, tn := outcomeCounters(&q.stats, ts, from); n != nil {
		*n--
		*tn--
	}
	if n, tn := outcomeCounters(&q.stats, ts, to); n != nil {
		*n++
		*tn++
	}
	if from != "" {
		q.journalLocked(j)
		if q.opts.Journal != nil && q.opts.Journal.JobsLogSize() >= journalCompactBytes {
			q.compactJournalLocked()
		}
	}
	if from.Terminal() {
		return
	}
	j.wait.End() // no-op unless the job dies still queued
	j.root.EndWith(err)
	j.root, j.wait = nil, nil
	if from != "" && to == StateDeployed {
		q.histE2E.Observe(j.snap.Finished.Sub(j.snap.Submitted))
	}
	if tq != nil {
		if j.dispatched {
			tq.inFlight--
			// A freed in-flight slot may unblock a capped tenant's backlog.
			if q.opts.TenantMaxInFlight > 0 && q.depth > 0 {
				q.nudge()
			}
		}
		q.reclaimTenantLocked(tq)
	}
	close(j.done)
	q.finished = append(q.finished, j)
	for len(q.finished) > retention {
		old := q.finished[0]
		q.finished = q.finished[1:]
		delete(q.jobs, old.snap.ID)
	}
}

// outcomeCounters returns the queue's and the tenant's counter of jobs in
// terminal state s (nil, nil for any other state).
func outcomeCounters(st *Stats, ts *TenantStats, s State) (*uint64, *uint64) {
	switch s {
	case StateDeployed:
		return &st.Deployed, &ts.Deployed
	case StateFailed:
		return &st.Failed, &ts.Failed
	case StateCanceled:
		return &st.Canceled, &ts.Canceled
	}
	return nil, nil
}
