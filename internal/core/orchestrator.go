package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/journal"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/obs"
	"github.com/unify-repro/escape/internal/topo"
	"github.com/unify-repro/escape/internal/unify"
)

// MaxMapAttempts bounds the optimistic snapshot→map→commit retries of an
// Install: each retry re-reads the DoV after a concurrent commit bumped the
// generation. Exhaustion returns unify.ErrBusy — the request was never
// rejected on its merits, only crowded out.
const MaxMapAttempts = 8

// ResourceOrchestrator is the manager of the paper's architecture: it merges
// the virtualization views of its southbound layers into a global resource
// view (the DoV — domain of views), maps incoming requests onto it, and
// splits the result into sub-requests for each child. It implements
// unify.Layer northbound, so orchestrators stack recursively.
//
// Concurrency model (sharded snapshot → map → commit): the DoV is partitioned
// into shards (one per child domain by default, see Config.ShardKey), each an
// immutable graph value guarded by its own generation counter. An install
// estimates the shard set its request can touch, snapshots a consistent cut
// of those shards, runs the CPU-bound embedding against the merged snapshot
// without holding any lock, and re-validates the touched shards' generations
// in a short critical section when swapping the new graphs in — locking the
// shards in key order, so multi-shard commits are an ordered two-phase swap
// while single-shard commits take exactly one lock. Installs whose shard sets
// are disjoint therefore snapshot, map and commit fully concurrently; only
// overlapping ones contend, and a loser re-maps on a fresh cut (bounded by
// MaxMapAttempts). Child deployments then fan out in parallel goroutines with
// first-error cancellation, so install latency is the slowest child rather
// than the sum of all children.
type ResourceOrchestrator struct {
	id       string
	virt     Virtualizer
	mapper   *embed.Mapper
	reg      *domain.Registry
	shardKey ShardKeyFunc
	// journal receives write-ahead records on the commit paths (may be nil).
	// Appends ride the shard locks they describe, so per-shard record order
	// matches commit order without any global serialization.
	journal Journal

	// mu guards the registration-time metadata (dir, owner, contrib/index) —
	// all replaced copy-on-write so planners read snapshots lock-free — plus
	// the service table and the global NF/hop identifier reservations. Lock
	// order: a shard mutex may be acquired before mu, never while holding mu.
	mu       sync.Mutex
	dir      *shardDirectory
	owner    map[nffg.ID]string // immutable snapshot: DoV infra -> child ID that exported it
	services map[string]*serviceRecord
	// nfOwner/hopOwner reserve request-graph identifiers globally: shards
	// commit independently, so cross-shard uniqueness of NF and hop IDs (the
	// invariant the old single-graph ApplyTo enforced for free) is checked
	// here at admission instead.
	nfOwner  map[nffg.ID]string
	hopOwner map[string]string
	// contrib maps shard key -> node IDs it answers for (tagged with the
	// shard generation it was derived from); index is the derived reverse
	// index (node -> sorted shard keys) ShardSet reads. Both rebuilt at
	// attach time only (commit never changes membership; see readcache.go).
	contrib map[string]shardContrib
	index   map[nffg.ID][]string
	// departed tombstones nodes whose owning child was detached at runtime
	// (node -> former child ID), so installs referencing them get a typed
	// ErrDomainUnavailable instead of an opaque global-plan rejection. A
	// re-attach contributing the node clears its tombstone. Guarded by mu.
	departed map[nffg.ID]string
	// lastGen remembers the final generation of every shard a Detach dropped,
	// so a re-attach of the same key resumes counting instead of restarting
	// at zero — per-shard journal records must stay gen-monotone across
	// detach/attach cycles (see internal/journal replay). Guarded by mu.
	lastGen map[string]uint64

	// gate, when set (see SetDomainGate), vets child availability on the
	// install intake and deploy fan-out paths: the fleet controller installs
	// one so requests targeting a non-ACTIVE domain fail fast and typed.
	gate atomic.Pointer[DomainGate]

	// Attach view-fetch bounds (see Config.ViewTimeout / ViewRetries).
	viewTimeout time.Duration
	viewRetries int

	// epoch counts committed DoV changes (attach merges, install commits,
	// releases) across all shards — the logical generation northbound.
	// Every bump goes through bumpEpoch (version.go) so watch waiters wake.
	epoch atomic.Uint64
	// tableVer counts service-table visibility changes (deploy completions,
	// removal drops) that move the northbound version WITHOUT a DoV commit:
	// the shard vector — and thus the view ETag — is unchanged, but watch
	// streams must still deliver the refreshed service list. The watch
	// cursor (ViewVersion.Generation) is epoch + tableVer; Generation()
	// stays a pure commit counter.
	tableVer atomic.Uint64
	// watch broadcasts epoch bumps to WaitVersion callers (watch streams).
	watch changeNotifier

	// Generation-keyed read caches (see readcache.go): cuts holds merged
	// cuts per shard set, viewCache the view over the all-shard cut.
	cuts      cutCache
	viewCache atomic.Pointer[viewEntry]
	cutStats  cacheCounters
	viewStats cacheCounters

	// Contention counters of the mapping pipeline (see PipelineStats).
	stats struct {
		installs, mapAttempts, genConflicts, busy, batches, batchedReqs atomic.Uint64
		multiShard, escalations, mergeErrors, journalErrs               atomic.Uint64
	}

	// Per-stage latency distributions (see StageHistograms).
	histMap    obs.Histogram
	histCommit obs.Histogram
}

// PipelineStats are cumulative counters of the snapshot→map→commit pipeline,
// exposed for observability (GET /v1/unify/stats and /metrics serve them): how often
// installs re-map, how often commits collide, and how much batching
// amortizes.
type PipelineStats struct {
	// Installs counts successfully deployed requests.
	Installs uint64 `json:"installs"`
	// MapAttempts counts snapshot→map→commit cycles (≥1 per shard group).
	MapAttempts uint64 `json:"map_attempts"`
	// GenConflicts counts commits lost to a concurrent generation bump on an
	// overlapping shard.
	GenConflicts uint64 `json:"gen_conflicts"`
	// Busy counts requests that exhausted MaxMapAttempts (unify.ErrBusy).
	Busy uint64 `json:"busy"`
	// Batches counts committed admission batches; BatchedRequests the
	// requests they carried (BatchedRequests/Batches = mean batch size).
	Batches         uint64 `json:"batches"`
	BatchedRequests uint64 `json:"batched_requests"`
	// MultiShardCommits counts commits that spanned more than one shard (the
	// ordered two-phase path).
	MultiShardCommits uint64 `json:"multi_shard_commits"`
	// Escalations counts requests whose scoped plan failed and was retried
	// against the full shard set.
	Escalations uint64 `json:"escalations"`
	// MergeErrors counts failed all-shard cut merges (colliding shard
	// exports). The error is propagated to the View/DoV/plan caller instead
	// of serving an incomplete cut; a nonzero counter means the DoV holds
	// conflicting state and needs operator attention.
	MergeErrors uint64 `json:"merge_errors"`
	// JournalErrors counts failed write-ahead journal appends. The in-memory
	// commit proceeds (the state change already happened); a nonzero counter
	// means durability is degraded and a crash may lose those records.
	JournalErrors uint64 `json:"journal_errors"`
	// CutCache/ViewCache count the generation-keyed read caches: the merged
	// all-shard cut (plus the per-shard-subset cuts narrowed admission groups
	// plan on) and the memoized virtualizer view (see readcache.go).
	CutCache  CacheStats `json:"cut_cache"`
	ViewCache CacheStats `json:"view_cache"`
	// Southbound aggregates device-programming counters from every attached
	// child that exposes them (see southbound.go): what the control plane
	// sent toward real dataplanes and what each delta cost.
	Southbound SouthboundStats `json:"southbound"`
}

// serviceState tracks the lifecycle of a serviceRecord so concurrent
// operations on the same ID exclude each other without holding the
// orchestrator lock across actuation.
type serviceState int

const (
	// statePending: install in flight; the ID is reserved and (after commit)
	// DoV resources are held, but children may not be programmed yet.
	statePending serviceState = iota
	// stateReady: fully deployed.
	stateReady
	// stateRemoving: teardown in flight.
	stateRemoving
)

type serviceRecord struct {
	state   serviceState
	mapping *embed.Mapping
	// children maps child ID -> sub-service IDs installed there.
	children map[string][]string
	receipt  *unify.Receipt
	// shards is the set of shard keys the committed mapping touched (the
	// shards Remove must release).
	shards []string
	// resNFs/resHops are the identifiers reserved in nfOwner/hopOwner.
	resNFs  []nffg.ID
	resHops []string
}

// Config configures a ResourceOrchestrator.
type Config struct {
	// ID names the orchestrator (and its layer).
	ID string
	// Virtualizer selects the northbound view policy (default DomainBiSBiS).
	Virtualizer Virtualizer
	// Mapper selects the embedding algorithm (default embed.NewDefault).
	Mapper *embed.Mapper
	// ShardKey groups child domains into DoV shards (default ShardPerDomain:
	// every child gets its own shard; SingleShard restores the pre-sharding
	// single generation counter).
	ShardKey ShardKeyFunc
	// Journal, when set, receives a write-ahead record for every state
	// mutation (attach, commit, release, deploy completion) so the DoV and
	// service table survive a crash (see internal/journal and Restore). A
	// journal append failure never fails the in-memory commit — the write
	// already happened; it is logged and counted in
	// PipelineStats.JournalErrors instead.
	Journal Journal
	// ViewTimeout bounds each child view fetch inside Attach/Reattach, so a
	// hung child cannot stall attach indefinitely; ViewRetries is the number
	// of additional fetch attempts after a failure. Zero values leave the
	// caller's context in charge and fetch exactly once.
	ViewTimeout time.Duration
	ViewRetries int
}

// NewResourceOrchestrator creates an orchestrator with no children attached.
func NewResourceOrchestrator(cfg Config) *ResourceOrchestrator {
	if cfg.Virtualizer == nil {
		cfg.Virtualizer = DomainBiSBiS{}
	}
	if cfg.Mapper == nil {
		cfg.Mapper = embed.NewDefault()
	}
	if cfg.ID == "" {
		cfg.ID = "ro"
	}
	if cfg.ShardKey == nil {
		cfg.ShardKey = ShardPerDomain
	}
	return &ResourceOrchestrator{
		id:          cfg.ID,
		virt:        cfg.Virtualizer,
		mapper:      cfg.Mapper,
		reg:         domain.NewRegistry(),
		shardKey:    cfg.ShardKey,
		journal:     cfg.Journal,
		dir:         newShardDirectory(),
		owner:       map[nffg.ID]string{},
		services:    map[string]*serviceRecord{},
		nfOwner:     map[nffg.ID]string{},
		hopOwner:    map[string]string{},
		contrib:     map[string]shardContrib{},
		index:       map[nffg.ID][]string{},
		departed:    map[nffg.ID]string{},
		lastGen:     map[string]uint64{},
		viewTimeout: cfg.ViewTimeout,
		viewRetries: cfg.ViewRetries,
	}
}

// DomainGate vets a child domain on the install paths: a non-nil return means
// requests must not be sent its way right now. The returned error is wrapped
// in unify.ErrDomainUnavailable before surfacing northbound.
type DomainGate func(child string) error

// SetDomainGate installs (or, with nil, removes) the availability gate
// consulted by install intake and the deploy fan-out. Safe to call at any
// time; in-flight operations observe the change at their next check.
func (ro *ResourceOrchestrator) SetDomainGate(gate DomainGate) {
	if gate == nil {
		ro.gate.Store(nil)
		return
	}
	ro.gate.Store(&gate)
}

// gateErr returns the typed unavailability error for a child, or nil when no
// gate is installed or the gate passes.
func (ro *ResourceOrchestrator) gateErr(child string) error {
	g := ro.gate.Load()
	if g == nil {
		return nil
	}
	if err := (*g)(child); err != nil {
		return fmt.Errorf("%w: child %s: %v", unify.ErrDomainUnavailable, child, err)
	}
	return nil
}

// fetchChildView fetches a child's exported view with the configured per-try
// deadline and bounded retries, so Attach cannot hang on an unresponsive
// child.
func (ro *ResourceOrchestrator) fetchChildView(ctx context.Context, d domain.Domain) (*nffg.NFFG, error) {
	attempts := ro.viewRetries + 1
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, err
		}
		vctx, cancel := ctx, context.CancelFunc(func() {})
		if ro.viewTimeout > 0 {
			vctx, cancel = context.WithTimeout(ctx, ro.viewTimeout)
		}
		view, err := d.View(vctx)
		cancel()
		if err == nil {
			return view, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("view fetch failed after %d attempts: %w", attempts, lastErr)
}

// ID implements unify.Layer.
func (ro *ResourceOrchestrator) ID() string { return ro.id }

// Attach registers a southbound layer (an infrastructure domain adapter or
// another orchestrator) and folds its view into the DoV shard its shard key
// selects. Children exporting the same SAP IDs are stitched at those border
// SAPs (also across shards: a border SAP shared by two shards appears in
// both, and is the stitch point when their graphs are merged for planning).
// Link IDs are qualified with the child ID so they stay unique across shards.
// The merge runs on a copy that is swapped in only on success, so a failed
// Attach can never leave a partially-merged shard behind. ctx bounds the
// child view fetch (which may be a remote call).
func (ro *ResourceOrchestrator) Attach(ctx context.Context, d domain.Domain) error {
	if err := ro.reg.Register(d); err != nil {
		return err
	}
	view, err := ro.fetchChildView(ctx, d)
	if err != nil {
		_ = ro.reg.Deregister(d.ID())
		return fmt.Errorf("core: attach %s: %w", d.ID(), err)
	}
	// Qualify link IDs: shard graphs are merged on demand for planning, and
	// per-child qualification keeps link identity stable across any merge
	// order (the mapping's path link IDs must resolve in the owning shard).
	qual := view.Copy()
	for _, l := range qual.Links {
		l.ID = l.ID + "@" + d.ID()
	}
	key := ro.shardKey(d.ID())

	ro.mu.Lock()
	// Infra IDs must stay globally unique even across shards (the owner map
	// is the authority the per-graph merge check used to be).
	for _, id := range qual.InfraIDs() {
		if prev, ok := ro.owner[id]; ok {
			ro.mu.Unlock()
			_ = ro.reg.Deregister(d.ID())
			return fmt.Errorf("core: attach %s: infra %s already exported by %s", d.ID(), id, prev)
		}
	}
	dir := ro.dir.clone()
	sh, existed := dir.shards[key]
	if !existed {
		sh = &shard{key: key}
		if last, ok := ro.lastGen[key]; ok {
			// The key was detached before: resume its generation counter so
			// the shard's journal records stay gen-monotone across the
			// detach/attach cycle (replay relies on it).
			sh.gen, sh.commits = last, last
		}
		dir.shards[key] = sh
		dir.keys = append(dir.keys, key)
		sort.Strings(dir.keys)
	}
	dir.childShard[d.ID()] = key
	dir.domains[key] = append(dir.domains[key], d.ID())
	sort.Strings(dir.domains[key])
	owner := make(map[nffg.ID]string, len(ro.owner)+qual.Infras.Len())
	for k, v := range ro.owner {
		owner[k] = v
	}
	for _, infra := range qual.InfraIDs() {
		owner[infra] = d.ID()
	}
	// A node contributed by a (re)attaching child is available again: clear
	// any detach tombstone so installs stop failing typed on it.
	if len(ro.departed) > 0 {
		for _, infra := range qual.InfraIDs() {
			delete(ro.departed, infra)
		}
		for sapID := range qual.SAPs.All() {
			delete(ro.departed, sapID)
		}
	}
	ro.dir = dir
	ro.owner = owner
	ro.mu.Unlock()

	sh.mu.Lock()
	next := nffg.New(ro.id + "-dov")
	if sh.dov != nil {
		next = sh.dov.Copy()
	}
	if err := next.Merge(qual); err != nil {
		// Remove exactly our entries from the current state (not a snapshot
		// restore, which would clobber concurrent attaches of other children).
		// sh.mu is still held — lock order shard→ro.mu is the allowed
		// direction — so sh.dov cannot change while we decide whether the
		// shard itself must go.
		ro.mu.Lock()
		rb := ro.dir.clone()
		delete(rb.childShard, d.ID())
		kept := rb.domains[key][:0]
		for _, c := range rb.domains[key] {
			if c != d.ID() {
				kept = append(kept, c)
			}
		}
		rb.domains[key] = kept
		if len(kept) == 0 && sh.dov == nil {
			// We created this shard and nothing ever merged into it: drop it,
			// or it would haunt ShardStats and every all-shard cut forever.
			delete(rb.shards, key)
			delete(rb.domains, key)
			keys := rb.keys[:0]
			for _, k := range rb.keys {
				if k != key {
					keys = append(keys, k)
				}
			}
			rb.keys = keys
		}
		rbOwner := make(map[nffg.ID]string, len(ro.owner))
		for k, v := range ro.owner {
			if v != d.ID() {
				rbOwner[k] = v
			}
		}
		ro.dir, ro.owner = rb, rbOwner
		ro.mu.Unlock()
		sh.mu.Unlock()
		_ = ro.reg.Deregister(d.ID())
		return fmt.Errorf("core: merge view of %s: %w", d.ID(), err)
	}
	sh.dov = next.Seal()
	sh.gen++
	sh.commits++
	if ro.journal != nil {
		// Journaled inside the critical section so the shard's record order
		// matches its commit order; the epoch is bumped here for the same
		// reason (observably identical — it is a plain monotonic counter).
		epoch := ro.bumpEpoch()
		if err := ro.journal.LogAttach(key, sh.gen, epoch, d.ID(), ro.id+"-dov", qual); err != nil {
			ro.stats.journalErrs.Add(1)
			log.Printf("core %s: journal attach %s: %v", ro.id, d.ID(), err)
		} else {
			sh.journalRecs++
		}
		sh.mu.Unlock()
	} else {
		sh.mu.Unlock()
		ro.bumpEpoch()
	}

	// Refresh the reverse index with the shard's new contribution (its DoV
	// nodes, SAPs and the view nodes they aggregate into). The contribution
	// is computed from the shard's CURRENT graph — not from `next`, which a
	// concurrent Attach to the same shard key may already have superseded —
	// and stored guarded by the shard generation it was derived from, so a
	// late writer can never clobber a newer sibling's contribution. Between
	// the commit above and this update, ShardSet may briefly miss the new
	// nodes and fall back to a global estimate — safe, merely conservative.
	sh.mu.Lock()
	cur, curGen := sh.dov, sh.gen
	sh.mu.Unlock()
	contribution := shardContrib{gen: curGen, nodes: ro.shardContribution(cur)}
	ro.mu.Lock()
	if prev, ok := ro.contrib[key]; !ok || curGen >= prev.gen {
		contrib := make(map[string]shardContrib, len(ro.contrib)+1)
		for k, v := range ro.contrib {
			contrib[k] = v
		}
		contrib[key] = contribution
		ro.contrib = contrib
		ro.rebuildIndexLocked()
	}
	ro.mu.Unlock()
	return nil
}

// Children lists attached child layer IDs.
func (ro *ResourceOrchestrator) Children() []string { return ro.reg.Names() }

// ShardOf returns the DoV shard key an attached child's view lives in.
func (ro *ResourceOrchestrator) ShardOf(child string) (string, bool) {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	key, ok := ro.dir.childShard[child]
	return key, ok
}

// snapshotDir returns the current immutable (directory, owner) pair.
func (ro *ResourceOrchestrator) snapshotDir() (*shardDirectory, map[nffg.ID]string) {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	return ro.dir, ro.owner
}

// Generation returns the DoV epoch: the number of committed DoV changes
// (attach merges, install commits, releases) since start, summed across
// shards but counted once per commit event.
func (ro *ResourceOrchestrator) Generation() uint64 {
	return ro.epoch.Load()
}

// PipelineStats returns the cumulative mapping-pipeline counters.
func (ro *ResourceOrchestrator) PipelineStats() PipelineStats {
	return PipelineStats{
		Installs:          ro.stats.installs.Load(),
		MapAttempts:       ro.stats.mapAttempts.Load(),
		GenConflicts:      ro.stats.genConflicts.Load(),
		Busy:              ro.stats.busy.Load(),
		Batches:           ro.stats.batches.Load(),
		BatchedRequests:   ro.stats.batchedReqs.Load(),
		MultiShardCommits: ro.stats.multiShard.Load(),
		Escalations:       ro.stats.escalations.Load(),
		MergeErrors:       ro.stats.mergeErrors.Load(),
		JournalErrors:     ro.stats.journalErrs.Load(),
		CutCache:          ro.cutStats.snapshot(),
		ViewCache:         ro.viewStats.snapshot(),
		Southbound:        ro.SouthboundStats(),
	}
}

// StageHistograms returns the orchestrator's per-stage latency distributions:
// "map" is one snapshot→plan pass over a shard group (including retries),
// "commit" the locked generation-validate-and-swap of a successful commit.
func (ro *ResourceOrchestrator) StageHistograms() map[string]obs.HistogramSnapshot {
	return map[string]obs.HistogramSnapshot{
		"map":    ro.histMap.Snapshot(),
		"commit": ro.histCommit.Snapshot(),
	}
}

// SouthboundStats implements SouthboundStatsProvider by aggregating every
// attached child that exposes southbound counters (leaf adapters record
// them; nested orchestrators aggregate recursively).
func (ro *ResourceOrchestrator) SouthboundStats() SouthboundStats {
	var agg SouthboundStats
	for _, d := range ro.reg.All() {
		if sp, ok := d.(SouthboundStatsProvider); ok {
			agg.Merge(sp.SouthboundStats())
		}
	}
	return agg
}

// ShardStats reports every DoV shard's generation and commit counters, in
// shard-key order.
func (ro *ResourceOrchestrator) ShardStats() []ShardStats {
	dir, _ := ro.snapshotDir()
	out := make([]ShardStats, 0, len(dir.keys))
	for _, key := range dir.keys {
		sh := dir.shards[key]
		sh.mu.Lock()
		st := ShardStats{
			Shard:             key,
			Domains:           append([]string(nil), dir.domains[key]...),
			Gen:               sh.gen,
			Commits:           sh.commits,
			Conflicts:         sh.conflicts,
			MultiShardCommits: sh.multi,
			JournalRecords:    sh.journalRecs,
			RestoredGen:       sh.restoredGen,
		}
		sh.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// DoV returns the current global resource view, assembled from a consistent
// cut across all shards: a multi-shard commit is never observed half-applied.
// The returned graph is a SHARED, sealed snapshot served from the
// generation-keyed cut cache — treat it as read-only and Copy() before
// mutating (race builds enforce this). An error means the shard exports
// could not be merged into one cut (see PipelineStats.MergeErrors).
func (ro *ResourceOrchestrator) DoV() (*nffg.NFFG, error) {
	graphs, vec := ro.currentCut()
	merged, err := ro.mergedCut(graphs, vec)
	if err != nil {
		return nil, err
	}
	if merged == nil {
		return nffg.New(ro.id + "-dov"), nil
	}
	return merged, nil
}

// View implements unify.Layer: the northbound virtualization of the DoV.
// The view derives from an immutable consistent cut, so the computation runs
// without holding any shard lock — and on the steady state it is a pointer
// return: the virtualizer output is memoized per generation vector, so
// repeated views between commits share one sealed graph (readers Copy()
// before mutating, per the unify.Layer contract).
func (ro *ResourceOrchestrator) View(ctx context.Context) (*nffg.NFFG, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	graphs, vec := ro.currentCut()
	return ro.viewFromCut(graphs, vec)
}

// viewFromCut computes (or serves cached) the virtualizer output over one
// consistent cut — the shared tail of View and VersionedView.
func (ro *ResourceOrchestrator) viewFromCut(graphs []*nffg.NFFG, vec genVec) (*nffg.NFFG, error) {
	if e := ro.viewCache.Load(); e != nil && e.vec.equal(vec) {
		ro.viewStats.hits.Add(1)
		return e.view, nil
	}
	ro.viewStats.misses.Add(1)
	merged, err := ro.mergedCut(graphs, vec)
	if err != nil {
		return nil, err
	}
	if merged == nil {
		return nil, ErrEmptyView
	}
	v, err := ro.virt.View(merged)
	if err != nil {
		return nil, err
	}
	v.Seal()
	if old := ro.viewCache.Load(); old != nil {
		ro.viewStats.invalidations.Add(1)
	}
	ro.viewCache.Store(&viewEntry{vec: vec, view: v})
	return v, nil
}

// ShardSet implements unify.Sharder: it estimates, without mapping, which DoV
// shards a request's embedding may touch, by looking every endpoint and pin
// up in the reverse index (node -> owning shards, maintained at attach time —
// no shard graph is read and no shard lock taken). Requests with unpinned NFs
// narrow to the shards of their SAP anchors: the scoped plan can only place
// within that cut, and a plan that legitimately needs more (a detour, a
// placement elsewhere) escalates once to a full-DoV pass. nil means the set
// could not be narrowed at all (unknown endpoint or pin, a view node spanning
// every shard, no SAP anchors): the request must be planned globally.
func (ro *ResourceOrchestrator) ShardSet(req *nffg.NFFG) []string {
	if req == nil {
		return nil
	}
	ro.mu.Lock()
	idx := ro.index
	ro.mu.Unlock()
	set := map[string]bool{}
	for sapID := range req.SAPs.All() {
		keys := idx[sapID]
		if len(keys) == 0 {
			return nil // unknown endpoint: let the global plan reject it
		}
		for _, k := range keys {
			set[k] = true
		}
	}
	for _, id := range req.NFIDs() {
		host := req.NFs.Get(id).Host
		if host == "" {
			if req.SAPs.Len() == 0 {
				return nil // no anchor to narrow by
			}
			continue // unpinned: bounded by the SAP-anchored cut + escalation
		}
		keys := idx[host]
		if len(keys) == 0 {
			return nil // unknown pin: let the global plan reject it
		}
		for _, k := range keys {
			set[k] = true
		}
	}
	if len(set) == 0 {
		return nil
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// plan runs the CPU-bound embedding of one request against an immutable DoV
// snapshot: view-pin expansion and scoped mapping. It holds no locks and
// mutates no shared state; realizing the mapping on a working DoV (and
// splitting it per child) is the caller's business.
func (ro *ResourceOrchestrator) plan(snap *nffg.NFFG, req *nffg.NFFG) (*embed.Mapping, error) {
	work, scope, err := expandPins(ro.virt, snap, req)
	if err != nil {
		return nil, err
	}
	mapping, err := ro.mapper.MapScoped(snap, work, scope)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", unify.ErrRejected, err)
	}
	return mapping, nil
}

// touchedShards derives the shard set a planned mapping actually occupies:
// the shards owning its NF hosts and every infra node its hop paths cross.
// The home shard (first in key order) carries the mapping's bookkeeping
// records. Falls back to the group's first shard for mappings that touch no
// infra at all (degenerate SAP-to-SAP paths).
func touchedShards(mp *embed.Mapping, owner map[nffg.ID]string, dir *shardDirectory, groupKeys []string) (keys []string, home string) {
	set := map[string]bool{}
	add := func(node nffg.ID) {
		if child, ok := owner[node]; ok {
			if key, ok := dir.childShard[child]; ok {
				set[key] = true
			}
		}
	}
	for _, host := range mp.NFHost {
		add(host)
	}
	for _, p := range mp.Paths {
		for _, n := range p.Nodes {
			add(nffg.ID(n))
		}
	}
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		keys = []string{groupKeys[0]}
	}
	return keys, keys[0]
}

// Install implements unify.Layer: a single-request admission batch (see
// InstallBatch for the snapshot→map→commit pipeline).
func (ro *ResourceOrchestrator) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	out := ro.InstallBatch(ctx, []*nffg.NFFG{req}, unify.BatchObserver{})
	return out[0].Receipt, out[0].Err
}

// batchRun carries the shared state of one InstallBatch call across its
// concurrent shard groups. Each request index is owned by exactly one group
// at a time (escalated indices move to the phase-2 group only after every
// phase-1 group finished), so the per-index slices need no locking; the
// conclude/escalate bookkeeping that crosses groups is guarded by mu.
type batchRun struct {
	ro      *ResourceOrchestrator
	reqs    []*nffg.NFFG
	out     []unify.BatchOutcome
	obs     unify.BatchObserver
	records []*serviceRecord
	live    []bool
	planErr []error

	mu        sync.Mutex
	notified  []bool
	escalated []int
}

func (bc *batchRun) conclude(i int) {
	bc.mu.Lock()
	if bc.notified[i] {
		bc.mu.Unlock()
		return
	}
	bc.notified[i] = true
	bc.mu.Unlock()
	if bc.obs.Done != nil {
		bc.obs.Done(i, bc.out[i])
	}
}

func (bc *batchRun) finish() []unify.BatchOutcome {
	for i := range bc.out {
		bc.conclude(i)
	}
	return bc.out
}

// abort drops request i's reservations (service ID, NF IDs, hop IDs) and
// finalizes its error. Only the group (or deploy goroutine) owning index i
// may call it.
func (bc *batchRun) abort(i int, err error) {
	ro := bc.ro
	ro.mu.Lock()
	ro.dropReservationsLocked(bc.reqs[i].ID, bc.records[i])
	ro.mu.Unlock()
	bc.live[i] = false
	bc.out[i].Err = err
}

func (bc *batchRun) escalate(i int) {
	bc.ro.stats.escalations.Add(1)
	bc.mu.Lock()
	bc.escalated = append(bc.escalated, i)
	bc.mu.Unlock()
}

func (bc *batchRun) takeEscalated() []int {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	out := bc.escalated
	bc.escalated = nil
	sort.Ints(out)
	return out
}

// dropReservationsLocked releases a service's identifier reservations.
// Callers hold ro.mu.
func (ro *ResourceOrchestrator) dropReservationsLocked(serviceID string, rec *serviceRecord) {
	delete(ro.services, serviceID)
	if rec == nil {
		return
	}
	for _, nf := range rec.resNFs {
		if ro.nfOwner[nf] == serviceID {
			delete(ro.nfOwner, nf)
		}
	}
	for _, h := range rec.resHops {
		if ro.hopOwner[h] == serviceID {
			delete(ro.hopOwner, h)
		}
	}
}

// InstallBatch implements unify.BatchInstaller: the batch is partitioned by
// the shard sets its requests can touch; groups with disjoint shard sets plan
// and commit fully concurrently, each against ONE consistent snapshot cut of
// its shards — every request over the residual capacity left by its
// predecessors — with a single generation bump per touched shard. Requests
// fail individually: a graph that cannot be embedded is rejected alone while
// the rest of its group proceeds, and a request that fails on its narrowed
// shard set is escalated once to a full-DoV plan before the rejection is
// final. After a group's commit its admitted requests fan out in parallel
// (each inheriting the per-child fan-out of deployChildren); a failed
// deployment releases only its own reservation, shard by shard.
func (ro *ResourceOrchestrator) InstallBatch(ctx context.Context, reqs []*nffg.NFFG, observer unify.BatchObserver) []unify.BatchOutcome {
	bc := &batchRun{
		ro:       ro,
		reqs:     reqs,
		out:      make([]unify.BatchOutcome, len(reqs)),
		obs:      observer,
		records:  make([]*serviceRecord, len(reqs)),
		live:     make([]bool, len(reqs)),
		planErr:  make([]error, len(reqs)),
		notified: make([]bool, len(reqs)),
	}
	if err := ctx.Err(); err != nil {
		for i := range bc.out {
			bc.out[i].Err = err
		}
		return bc.finish()
	}

	// Intake: reserve the service IDs plus the request-graph NF and hop IDs,
	// so duplicates — concurrent, within the batch, or across disjoint shards
	// — reject immediately and individually.
	ro.mu.Lock()
	if len(ro.dir.keys) == 0 {
		ro.mu.Unlock()
		for i := range bc.out {
			bc.out[i].Err = fmt.Errorf("%w: no domains attached", unify.ErrRejected)
		}
		return bc.finish()
	}
	for i, req := range reqs {
		if req == nil || req.ID == "" {
			bc.out[i].Err = fmt.Errorf("%w: request needs an ID", unify.ErrRejected)
			continue
		}
		if _, dup := ro.services[req.ID]; dup {
			bc.out[i].Err = fmt.Errorf("%w: service %s already installed", unify.ErrRejected, req.ID)
			continue
		}
		if err := req.CheckQuantities(); err != nil {
			bc.out[i].Err = fmt.Errorf("%w: %v", unify.ErrRejected, err)
			continue
		}
		if err := ro.checkIdentifiersLocked(req); err != nil {
			bc.out[i].Err = err
			continue
		}
		if err := ro.checkDomainsLocked(req); err != nil {
			bc.out[i].Err = err
			continue
		}
		rec := &serviceRecord{state: statePending, children: map[string][]string{}}
		for _, nf := range req.NFIDs() {
			ro.nfOwner[nf] = req.ID
			rec.resNFs = append(rec.resNFs, nf)
		}
		for _, h := range req.Hops {
			ro.hopOwner[h.ID] = req.ID
			rec.resHops = append(rec.resHops, h.ID)
		}
		ro.services[req.ID] = rec
		bc.records[i] = rec
		bc.live[i] = true
	}
	ro.mu.Unlock()

	// Partition by estimated shard overlap and run the groups concurrently.
	est := make([][]string, len(reqs))
	var liveIdx []int
	for i := range reqs {
		if bc.live[i] {
			est[i] = ro.ShardSet(reqs[i])
			liveIdx = append(liveIdx, i)
		}
	}
	groups := groupByOverlap(liveIdx, est)
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g shardGroup) {
			defer wg.Done()
			bc.runGroup(ctx, g.idx, g.keys, true)
		}(g)
	}
	wg.Wait()

	// Phase 2: requests rejected on a narrowed shard set get one full-DoV
	// retry (a path may legitimately detour through a shard the estimate did
	// not include).
	if esc := bc.takeEscalated(); len(esc) > 0 {
		bc.runGroup(ctx, esc, nil, false)
	}
	return bc.finish()
}

// checkIdentifiersLocked rejects a request whose NF or hop IDs are already
// reserved by another live service. Callers hold ro.mu.
func (ro *ResourceOrchestrator) checkIdentifiersLocked(req *nffg.NFFG) error {
	for _, nf := range req.NFIDs() {
		if owner, taken := ro.nfOwner[nf]; taken {
			return fmt.Errorf("%w: NF id %s already in use by service %s", unify.ErrRejected, nf, owner)
		}
	}
	for _, h := range req.Hops {
		if owner, taken := ro.hopOwner[h.ID]; taken {
			return fmt.Errorf("%w: hop id %s already in use by service %s", unify.ErrRejected, h.ID, owner)
		}
	}
	return nil
}

// checkDomainsLocked rejects a request whose referenced nodes (SAP endpoints
// and NF host pins) are only served by unavailable child domains: detached
// ones (tombstoned in departed) or ones the fleet gate vetoes. A node with at
// least one available owner passes — shared border SAPs survive the loss of
// one exporter. Unknown nodes pass through to the global plan, which rejects
// them on their merits. Callers hold ro.mu.
func (ro *ResourceOrchestrator) checkDomainsLocked(req *nffg.NFFG) error {
	gate := ro.gate.Load()
	if gate == nil && len(ro.departed) == 0 {
		return nil
	}
	check := func(node nffg.ID) error {
		keys := ro.index[node]
		if len(keys) == 0 {
			if child, gone := ro.departed[node]; gone {
				return fmt.Errorf("%w: node %s belonged to detached domain %s", unify.ErrDomainUnavailable, node, child)
			}
			return nil
		}
		if gate == nil {
			return nil
		}
		var firstErr error
		for _, k := range keys {
			for _, child := range ro.dir.domains[k] {
				err := (*gate)(child)
				if err == nil {
					return nil
				}
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: node %s: child %s: %v", unify.ErrDomainUnavailable, node, child, err)
				}
			}
		}
		return firstErr
	}
	for sapID := range req.SAPs.All() {
		if err := check(sapID); err != nil {
			return err
		}
	}
	for _, id := range req.NFIDs() {
		if host := req.NFs.Get(id).Host; host != "" {
			if err := check(host); err != nil {
				return err
			}
		}
	}
	return nil
}

// plannedReq is one accepted plan within a shard group.
type plannedReq struct {
	// placed is the accepted mapping with its flowrules, derived once on the
	// group's working graph and projected onto every touched shard.
	placed  *embed.Placement
	subs    map[string]*nffg.NFFG
	touched []string // shard keys the mapping occupies (home first)
	home    string
}

// runGroup admits one shard group of the batch: the optimistic
// snapshot→map→commit loop over the group's shard set. keys == nil plans
// against every shard. When mayEscalate is set, plan rejections on a narrowed
// set are deferred to the caller's phase-2 global group instead of being
// final.
func (bc *batchRun) runGroup(ctx context.Context, idx []int, keys []string, mayEscalate bool) {
	ro := bc.ro
	// Re-scope the batch's positional trace set to this group's members: a
	// stage span recorded below lands in every member's trace.
	gctx := obs.Narrow(ctx, len(bc.reqs), idx)
	attempts := 0
	var mapSpan *obs.Span
	abortIdx := func(err error) {
		mapSpan.EndWith(err)
		for _, i := range idx {
			if bc.live[i] {
				bc.out[i].Attempts += attempts
				bc.abort(i, err)
			}
		}
	}

	plans := make(map[int]*plannedReq, len(idx))
	committed := false
	narrow := false
	var lastErr error
	var tshs []*shard
	for attempts < MaxMapAttempts {
		attempts++
		if err := ctx.Err(); err != nil {
			abortIdx(err)
			return
		}
		ro.stats.mapAttempts.Add(1)
		mapSpan, _ = obs.StartSpan(gctx, "orchestrator.map", "attempt", strconv.Itoa(attempts))
		mapStart := time.Now()
		dir, owner := ro.snapshotDir()
		gkeys := keys
		if gkeys == nil {
			gkeys = dir.keys
		}
		narrow = len(gkeys) < len(dir.keys)
		shs := dir.ordered(gkeys)
		if len(shs) == 0 {
			abortIdx(fmt.Errorf("%w: no domains attached", unify.ErrRejected))
			return
		}
		skeys := make([]string, len(shs))
		for i, s := range shs {
			skeys[i] = s.key
		}
		graphs, gens := snapshotCut(shs)

		// The group's working graph: a consistent merge of its shards. The
		// whole group shares ONE working fork — each accepted mapping is
		// realized on it in place (embed.ApplyTo), so admitting N requests
		// costs one fork instead of N. The merge comes from the generation-
		// keyed cut cache: between commits to its shards it is skipped
		// entirely, and a full-DoV group reads the same sealed cut every
		// reader sees.
		base := graphs[0]
		var mergeErr error
		if len(shs) > 1 {
			base, mergeErr = ro.mergedCut(graphs, genVec{keys: skeys, gens: gens})
		}
		if mergeErr != nil {
			log.Printf("core %s: merging shard snapshots: %v", ro.id, mergeErr)
			abortIdx(fmt.Errorf("%w: shard views unmergeable: %v", unify.ErrRejected, mergeErr))
			return
		}
		if base == nil {
			abortIdx(fmt.Errorf("%w: no domains attached", unify.ErrRejected))
			return
		}
		cur := base
		var accepted []*embed.Placement
		rebuild := func() {
			// An ApplyTo failed partway and may have left cur inconsistent:
			// rebuild it by replaying the accepted mappings on a fresh fork
			// (deterministic — they applied cleanly before).
			cur = base.Fork()
			for _, p := range accepted {
				if rerr := p.ApplyTo(cur); rerr != nil {
					log.Printf("core %s: batch replay inconsistency: %v", ro.id, rerr)
				}
			}
		}
		mappable := 0
		for _, i := range idx {
			if !bc.live[i] {
				continue
			}
			delete(plans, i)
			bc.planErr[i] = nil
			req := bc.reqs[i]
			mapping, err := ro.plan(cur, req)
			if err != nil {
				bc.planErr[i] = err
				continue
			}
			placed, err := embed.Place(cur, mapping)
			if err != nil {
				bc.planErr[i] = fmt.Errorf("%w: %v", unify.ErrRejected, err)
				continue
			}
			if cur == base {
				cur = base.Fork()
			}
			if err := placed.ApplyTo(cur); err != nil {
				bc.planErr[i] = fmt.Errorf("%w: %v", unify.ErrRejected, err)
				rebuild()
				continue
			}
			subs, err := ro.split(base, owner, req.ID, mapping)
			if err != nil {
				bc.planErr[i] = fmt.Errorf("%w: %v", unify.ErrRejected, err)
				// The mapping applied cleanly, so Release is its exact inverse.
				if rerr := embed.Release(cur, mapping); rerr != nil {
					log.Printf("core %s: releasing unsplittable mapping: %v", ro.id, rerr)
					rebuild()
				}
				continue
			}
			touched, home := touchedShards(mapping, owner, dir, skeys)
			plans[i] = &plannedReq{placed: placed, subs: subs, touched: touched, home: home}
			accepted = append(accepted, placed)
			mappable++
		}
		ro.histMap.Observe(time.Since(mapStart))
		mapSpan.End()
		if mappable == 0 {
			// Nothing mappable on this snapshot. If a concurrent commit moved
			// one of the group's shards meanwhile the failures may be stale
			// (e.g. a Remove just freed the conflicting resources) — retry
			// fresh; otherwise they are final (or escalate to a global plan).
			if _, cgens := snapshotCut(shs); !equalGens(cgens, gens) {
				lastErr = fmt.Errorf("%w: DoV generation advanced during mapping", unify.ErrBusy)
				continue
			}
			bc.finalizeRejections(idx, attempts, mayEscalate && narrow)
			return
		}

		// Commit: lock the union of the touched shards in key order, validate
		// their generations against the snapshot cut, then swap every touched
		// shard's graph with a single generation bump each.
		tkeys := map[string]bool{}
		for _, i := range idx {
			if p, ok := plans[i]; ok && bc.live[i] {
				for _, k := range p.touched {
					tkeys[k] = true
				}
			}
		}
		var tkeyList []string
		for k := range tkeys {
			tkeyList = append(tkeyList, k)
		}
		sort.Strings(tkeyList)
		tshs = dir.ordered(tkeyList)
		genByKey := map[string]uint64{}
		for i, s := range shs {
			genByKey[s.key] = gens[i]
		}
		commitSpan, _ := obs.StartSpan(gctx, "orchestrator.commit", "shards", strconv.Itoa(len(tshs)))
		commitStart := time.Now()
		lockAll(tshs)
		conflict := false
		for _, s := range tshs {
			if s.gen != genByKey[s.key] {
				s.conflicts++
				conflict = true
			}
		}
		if conflict {
			unlockAll(tshs)
			// Lost the commit race; loop re-plans against the fresh cut.
			ro.stats.genConflicts.Add(1)
			lastErr = fmt.Errorf("%w: DoV generation advanced during mapping", unify.ErrBusy)
			commitSpan.EndWith(lastErr)
			continue
		}
		if len(shs) == 1 && len(tshs) == 1 && tshs[0] == shs[0] {
			// Single-shard fast path: the working fork IS the shard's next
			// snapshot (sealed: shard snapshots are shared by the read caches).
			tshs[0].dov = cur.Seal()
		} else {
			// Project each accepted mapping onto a fork of every touched
			// shard's graph; the home shard carries the bookkeeping.
			if err := bc.projectLocked(tshs, cur, idx, plans); err != nil {
				unlockAll(tshs)
				log.Printf("core %s: scoped commit projection failed: %v", ro.id, err)
				commitSpan.EndWith(err)
				abortIdx(fmt.Errorf("%w: commit projection failed: %v", unify.ErrRejected, err))
				return
			}
		}
		for _, s := range tshs {
			s.gen++
			s.commits++
			if len(tshs) > 1 {
				s.multi++
			}
		}
		// The epoch bump and journal appends stay inside the critical
		// section so every touched shard's record carries the epoch of THIS
		// commit and per-shard record order matches commit order.
		epoch := ro.bumpEpoch()
		if ro.journal != nil {
			bc.journalCommitLocked(tshs, epoch, idx, plans)
		}
		// Record each committed mapping in the service table before the
		// shard locks drop: the checkpointer reads shard graphs first and
		// the table second, so any graph state containing a commit must
		// already find its mapping in the table (see ShardSnapshots).
		ro.mu.Lock()
		for _, i := range idx {
			if p, ok := plans[i]; ok && bc.live[i] {
				bc.records[i].mapping = p.placed.Mapping
				bc.records[i].shards = p.touched
			}
		}
		ro.mu.Unlock()
		unlockAll(tshs)
		if len(tshs) > 1 {
			ro.stats.multiShard.Add(1)
		}
		ro.histCommit.Observe(time.Since(commitStart))
		commitSpan.End()
		committed = true
		break
	}
	if !committed {
		for _, i := range idx {
			if !bc.live[i] {
				continue
			}
			ro.stats.busy.Add(1)
			// Keep the request's own last rejection when it has one: a graph
			// that kept failing to map while the generation churned is more
			// usefully reported than the generic lost-race error.
			cause := lastErr
			if bc.planErr[i] != nil {
				cause = bc.planErr[i]
			}
			bc.out[i].Attempts += attempts
			bc.abort(i, fmt.Errorf("%w: gave up after %d mapping attempts (last: %v)", unify.ErrBusy, MaxMapAttempts, cause))
		}
		return
	}

	// The commit landed: group-local rejections are final (or escalate);
	// everyone else now holds a DoV reservation and must either deploy or
	// release it.
	var deployable []int
	for _, i := range idx {
		if !bc.live[i] {
			continue
		}
		if _, ok := plans[i]; !ok {
			if mayEscalate && narrow {
				bc.out[i].Attempts += attempts
				bc.escalate(i)
			} else {
				bc.out[i].Attempts += attempts
				bc.abort(i, bc.planErr[i])
			}
			continue
		}
		deployable = append(deployable, i)
	}
	ro.stats.batches.Add(1)
	ro.stats.batchedReqs.Add(uint64(len(deployable)))

	var wg sync.WaitGroup
	for _, i := range deployable {
		bc.out[i].Attempts += attempts
		if bc.obs.Admitted != nil {
			bc.obs.Admitted(i)
		}
		wg.Add(1)
		go func(i int, p *plannedReq) {
			defer wg.Done()
			defer bc.conclude(i)
			// Per-request deploy scope: narrow from the batch context (not
			// gctx — Narrow indices address the original positional set).
			dctx := obs.Narrow(ctx, len(bc.reqs), []int{i})
			children := sortedKeys(p.subs)
			receipts, err := ro.deployChildren(dctx, children, p.subs)
			if err != nil {
				if rerr := ro.releaseShards(bc.reqs[i].ID, p.placed.Mapping, p.touched); rerr != nil {
					log.Printf("core %s: releasing aborted install %s: %v", ro.id, bc.reqs[i].ID, rerr)
				}
				bc.abort(i, err)
				return
			}
			receipt := buildReceipt(bc.reqs[i].ID, p.placed.Mapping, children, receipts)
			childSubs := make(map[string][]string, len(children))
			ro.mu.Lock()
			rec := bc.records[i]
			rec.mapping = p.placed.Mapping
			rec.shards = p.touched
			for _, childID := range children {
				rec.children[childID] = append(rec.children[childID], p.subs[childID].ID)
				childSubs[childID] = append([]string(nil), rec.children[childID]...)
			}
			rec.receipt = receipt
			rec.state = stateReady
			ro.mu.Unlock()
			// The commit bump fired before the deploy finished, so a watcher
			// woken by it read Services() without this entry. Advance the
			// table version now that the service is northbound-visible so
			// watch streams get a fresh event carrying the completed list.
			ro.bumpTable()
			if ro.journal != nil {
				// Appended AFTER the table update: the checkpointer snapshots
				// the table, so everything a deployed record carries is
				// visible to any checkpoint taken after the append.
				err := ro.journal.LogDeployed(p.home, ro.epoch.Load(), journal.DeployedRecord{
					ServiceID: bc.reqs[i].ID, Children: childSubs, Receipt: receipt,
				})
				if err != nil {
					ro.stats.journalErrs.Add(1)
					log.Printf("core %s: journal deployed %s: %v", ro.id, bc.reqs[i].ID, err)
				}
			}
			bc.out[i].Receipt = receipt
			ro.stats.installs.Add(1)
		}(i, plans[i])
	}
	wg.Wait()
}

// finalizeRejections settles a group whose snapshot admitted nothing: either
// escalate every live member to the phase-2 global group, or make the
// rejections final.
func (bc *batchRun) finalizeRejections(idx []int, attempts int, escalate bool) {
	for _, i := range idx {
		if !bc.live[i] {
			continue
		}
		bc.out[i].Attempts += attempts
		if escalate {
			bc.escalate(i)
			continue
		}
		bc.abort(i, bc.planErr[i])
	}
}

// projectLocked replays the group's accepted mappings onto forks of the
// touched shards' graphs (callers hold every shard lock in tshs). Each shard
// receives exactly its slice of each mapping, installing its share of the
// flowrules the mapping's placement derived once on ref; the mapping's home shard also
// records the bookkeeping hop/requirement entries. Every projection is built
// before ANY shard pointer is swapped, so a failure leaves all shards
// untouched — a half-committed multi-shard group is impossible.
func (bc *batchRun) projectLocked(tshs []*shard, ref *nffg.NFFG, idx []int, plans map[int]*plannedReq) error {
	next := make([]*nffg.NFFG, len(tshs))
	for si, s := range tshs {
		g := nffg.New(bc.ro.id + "-dov")
		if s.dov != nil {
			g = s.dov.Fork()
		}
		for _, i := range idx {
			p, ok := plans[i]
			if !ok || !bc.live[i] {
				continue
			}
			mine := false
			for _, k := range p.touched {
				if k == s.key {
					mine = true
					break
				}
			}
			if !mine {
				continue
			}
			if err := p.placed.ApplyScoped(g, ref, s.key == p.home); err != nil {
				return fmt.Errorf("shard %s, request %s: %w", s.key, bc.reqs[i].ID, err)
			}
		}
		next[si] = g
	}
	for si, s := range tshs {
		s.dov = next[si].Seal()
	}
	return nil
}

func equalGens(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mappingReceipt turns a mapping into the northbound deployment record
// (placements, hop paths, applied decompositions).
func mappingReceipt(serviceID string, mapping *embed.Mapping) *unify.Receipt {
	receipt := &unify.Receipt{
		ServiceID:      serviceID,
		Placements:     map[nffg.ID]nffg.ID{},
		HopPaths:       map[string][]string{},
		Decompositions: mapping.Applied,
	}
	for nf, host := range mapping.NFHost {
		receipt.Placements[nf] = host
	}
	for hid, p := range mapping.Paths {
		var nodes []string
		for _, n := range p.Nodes {
			nodes = append(nodes, string(n))
		}
		receipt.HopPaths[hid] = nodes
	}
	return receipt
}

// buildReceipt assembles the recursive deployment record of one request.
func buildReceipt(serviceID string, mapping *embed.Mapping, children []string, childReceipts []*unify.Receipt) *unify.Receipt {
	receipt := mappingReceipt(serviceID, mapping)
	receipt.Children = map[string]*unify.Receipt{}
	for i, childID := range children {
		receipt.Children[childID] = childReceipts[i]
	}
	return receipt
}

// deployChildren installs the per-child sub-requests in parallel goroutines.
// The first failure cancels the context handed to the siblings, already
// deployed children are rolled back, and the first (root-cause) error is
// returned.
func (ro *ResourceOrchestrator) deployChildren(ctx context.Context, children []string, subs map[string]*nffg.NFFG) ([]*unify.Receipt, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	receipts := make([]*unify.Receipt, len(children))
	errs := make([]error, len(children))
	var wg sync.WaitGroup
	for i, childID := range children {
		wg.Add(1)
		go func(i int, childID string) {
			defer wg.Done()
			span, sctx := obs.StartSpan(cctx, "deploy.child", "child", childID)
			d, err := ro.reg.Get(childID)
			switch {
			case errors.Is(err, domain.ErrUnknown):
				// The child detached between commit and fan-out.
				err = fmt.Errorf("%w: child %s is not attached", unify.ErrDomainUnavailable, childID)
			case err == nil:
				if gerr := ro.gateErr(childID); gerr != nil {
					err = gerr
				} else {
					receipts[i], err = d.Install(sctx, subs[childID])
				}
			}
			span.EndWith(err)
			if err != nil {
				errs[i] = err
				cancel() // first error cancels the sibling deploys
			}
		}(i, childID)
	}
	wg.Wait()
	firstErr := pickRootCause(children, errs)
	if firstErr == nil {
		return receipts, nil
	}
	// Roll back whatever landed, in parallel, detached from the canceled
	// deploy context so teardown still runs after a northbound cancellation.
	rctx := context.WithoutCancel(ctx)
	var rb sync.WaitGroup
	for i, childID := range children {
		if receipts[i] == nil || errs[i] != nil {
			continue
		}
		rb.Add(1)
		go func(childID, subID string) {
			defer rb.Done()
			d, err := ro.reg.Get(childID)
			if err != nil {
				log.Printf("core %s: rollback of %s: %v", ro.id, subID, err)
				return
			}
			if rerr := d.Remove(rctx, subID); rerr != nil {
				log.Printf("core %s: rollback of %s on %s failed: %v", ro.id, subID, childID, rerr)
			}
		}(childID, subs[childID].ID)
	}
	rb.Wait()
	return nil, firstErr
}

// pickRootCause selects the error to surface from a fan-out: the first
// non-cancellation child error (the root cause) if any, wrapped in
// ErrRejected. A purely-canceled fan-out keeps the context error identity
// (errors.Is(err, context.Canceled) holds) instead of claiming rejection.
func pickRootCause(children []string, errs []error) error {
	var first error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = fmt.Errorf("core: child %s canceled: %w", children[i], err)
		}
		if errors.Is(err, unify.ErrDomainUnavailable) {
			// Keep the typed identity: the caller (and the northbound jobs
			// API) distinguishes an unavailable domain from a rejection.
			return err
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("%w: child %s rejected: %v", unify.ErrRejected, children[i], err)
		}
	}
	return first
}

// releaseShards returns a mapping's resources to the shards it occupies
// (each shard's release runs on a fork that replaces the current snapshot
// under the shard's lock; the shards are locked together in key order so the
// release is observed atomically).
func (ro *ResourceOrchestrator) releaseShards(serviceID string, mp *embed.Mapping, keys []string) error {
	dir, _ := ro.snapshotDir()
	shs := dir.ordered(keys)
	if len(shs) == 0 {
		return nil
	}
	var firstErr error
	lockAll(shs)
	epoch := ro.bumpEpoch()
	for _, s := range shs {
		if s.dov != nil {
			next := s.dov.Fork()
			if err := embed.Release(next, mp); err == nil {
				s.dov = next.Seal()
			} else if firstErr == nil {
				firstErr = err
			}
		}
		// Bump the generation either way so optimistic mappers re-read.
		s.gen++
		s.commits++
		if len(shs) > 1 {
			s.multi++
		}
		if ro.journal != nil {
			if err := ro.journal.LogRelease(s.key, s.gen, epoch, []string{serviceID}); err != nil {
				ro.stats.journalErrs.Add(1)
				log.Printf("core %s: journal release %s on %s: %v", ro.id, serviceID, s.key, err)
			} else {
				s.journalRecs++
			}
		}
	}
	unlockAll(shs)
	return firstErr
}

// Remove implements unify.Layer. Child teardowns fan out in parallel;
// teardown is best-effort (siblings are not canceled on error), the first
// error is reported, and a failed Remove keeps the service removable: the
// record and DoV reservation are dropped only once every child teardown
// succeeded, and retries tolerate children already gone.
func (ro *ResourceOrchestrator) Remove(ctx context.Context, serviceID string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ro.mu.Lock()
	rec, ok := ro.services[serviceID]
	if !ok {
		ro.mu.Unlock()
		return fmt.Errorf("%w: %s", unify.ErrUnknownService, serviceID)
	}
	if rec.state != stateReady {
		ro.mu.Unlock()
		return fmt.Errorf("%w: service %s has an operation in flight", unify.ErrBusy, serviceID)
	}
	rec.state = stateRemoving
	ro.mu.Unlock()

	children := sortedKeys(rec.children)
	errs := make([]error, len(children))
	var wg sync.WaitGroup
	for i, childID := range children {
		wg.Add(1)
		go func(i int, childID string) {
			defer wg.Done()
			d, err := ro.reg.Get(childID)
			if err != nil {
				// A child missing from the registry was detached at runtime:
				// its sub-services died with the domain, so teardown there is
				// already done and the DoV release below must still run.
				if !errors.Is(err, domain.ErrUnknown) {
					errs[i] = err
				}
				return
			}
			for _, subID := range rec.children[childID] {
				err := d.Remove(ctx, subID)
				// A child that no longer knows the sub-service was torn down
				// by an earlier partially-failed Remove: retries treat it as
				// done.
				if err != nil && !errors.Is(err, unify.ErrUnknownService) && errs[i] == nil {
					errs[i] = fmt.Errorf("core: remove %s on %s: %w", subID, childID, err)
				}
			}
		}(i, childID)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		// Partial teardown: keep the record (and the DoV reservation, since
		// children may still hold resources) so the caller can retry.
		ro.mu.Lock()
		rec.state = stateReady
		ro.mu.Unlock()
		return firstErr
	}
	if err := ro.releaseShards(serviceID, rec.mapping, rec.shards); err != nil {
		firstErr = err
	}
	ro.mu.Lock()
	ro.dropReservationsLocked(serviceID, rec)
	ro.mu.Unlock()
	// releaseShards bumped before the record dropped; watchers woken there
	// could still list the service. Advance the table version so the stream
	// converges on the post-removal service table.
	ro.bumpTable()
	return firstErr
}

// Services implements unify.Layer. Pending installs are not listed: a service
// exists northbound only once its Install returned.
func (ro *ResourceOrchestrator) Services() []string {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	out := make([]string, 0, len(ro.services))
	for id, rec := range ro.services {
		if rec.state == statePending {
			continue
		}
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Capabilities lets an orchestrator act as a native domain of a parent.
func (ro *ResourceOrchestrator) Capabilities() []domain.Capability {
	return []domain.Capability{domain.CapCompute, domain.CapForwarding, domain.CapNative}
}

// split turns a mapping over a DoV snapshot into per-child sub-requests: each
// child receives the NFs placed on its nodes (pinned) plus the hop segments
// that run inside it. Hop paths are cut at border SAPs and at links between
// nodes of different children.
func (ro *ResourceOrchestrator) split(snap *nffg.NFFG, owner map[nffg.ID]string, serviceID string, mp *embed.Mapping) (map[string]*nffg.NFFG, error) {
	subs := map[string]*nffg.NFFG{}
	getSub := func(child string) *nffg.NFFG {
		if s, ok := subs[child]; ok {
			return s
		}
		s := nffg.New(fmt.Sprintf("%s#%s", serviceID, child))
		subs[child] = s
		return s
	}
	// NFs.
	for _, nfID := range mp.Request.NFIDs() {
		nf := mp.Request.NFs.Get(nfID)
		host := mp.NFHost[nfID]
		child, ok := owner[host]
		if !ok {
			return nil, fmt.Errorf("core: DoV node %s has no owning child", host)
		}
		sub := getSub(child)
		c := &nffg.NF{
			ID: nfID, Name: nf.Name, FunctionalType: nf.FunctionalType,
			DeployType: nf.DeployType, Demand: nf.Demand, Host: host,
		}
		for _, p := range nf.Ports {
			cp := *p
			c.Ports = append(c.Ports, &cp)
		}
		if err := sub.AddNF(c); err != nil {
			return nil, err
		}
	}
	// Hop segments.
	for _, h := range mp.Request.Hops {
		p := mp.Paths[h.ID]
		segments, err := segment(owner, h, p)
		if err != nil {
			return nil, err
		}
		for _, seg := range segments {
			sub := getSub(seg.child)
			ensureSAPs(sub, snap, seg)
			hop := &nffg.SGHop{
				ID:        seg.id,
				SrcNode:   seg.srcNode,
				SrcPort:   seg.srcPort,
				DstNode:   seg.dstNode,
				DstPort:   seg.dstPort,
				Bandwidth: h.Bandwidth,
				// Border segments must classify on the true end-to-end
				// destination, not the border SAP the segment stops at.
				FlowDst: chainFlowDst(mp.Request, h),
			}
			if err := sub.AddHop(hop); err != nil {
				return nil, err
			}
		}
	}
	return subs, nil
}

// segment describes one intra-child piece of a hop.
type segmentInfo struct {
	child            string
	id               string
	srcNode, dstNode nffg.ID
	srcPort, dstPort string
}

// segment cuts one hop's DoV path into child-local pieces. Border SAPs (SAP
// nodes in the middle of a path) are the cut points; they appear as SAP
// endpoints in both adjacent children.
func segment(owner map[nffg.ID]string, h *nffg.SGHop, p topo.Path) ([]segmentInfo, error) {
	// Resolve which child each path node belongs to; SAPs resolve to "".
	childOf := func(n topo.NodeID) string { return owner[nffg.ID(n)] }
	// Single-node path (co-located endpoints) or single-child path.
	var segs []segmentInfo
	curChild := ""
	segSrcNode, segSrcPort := h.SrcNode, h.SrcPort
	idx := 1
	flush := func(dstNode nffg.ID, dstPort string) {
		if curChild == "" {
			return
		}
		segs = append(segs, segmentInfo{
			child: curChild, id: fmt.Sprintf("%s#%d", h.ID, idx),
			srcNode: segSrcNode, srcPort: segSrcPort,
			dstNode: dstNode, dstPort: dstPort,
		})
		idx++
	}
	for i, n := range p.Nodes {
		c := childOf(n)
		if c == "" {
			// SAP node: terminal or border cut point.
			if i == 0 || i == len(p.Nodes)-1 {
				continue
			}
			flush(nffg.ID(n), "1")
			curChild = ""
			segSrcNode, segSrcPort = nffg.ID(n), "1"
			continue
		}
		if curChild == "" {
			curChild = c
			continue
		}
		if c != curChild {
			// Direct inter-child link without a border SAP is not supported:
			// children must be stitched via shared SAPs.
			return nil, fmt.Errorf("core: hop %s crosses %s->%s without a border SAP", h.ID, curChild, c)
		}
	}
	flush(h.DstNode, h.DstPort)
	if len(segs) == 1 {
		segs[0].id = h.ID // single-child hops keep their original ID
	}
	if len(segs) == 0 {
		// Pure SAP-to-SAP path with no infra (degenerate); nothing to deploy.
		return nil, nil
	}
	return segs, nil
}

// ensureSAPs copies any SAP endpoints a segment references into the
// sub-request so it validates standalone.
func ensureSAPs(sub *nffg.NFFG, dov *nffg.NFFG, seg segmentInfo) {
	for _, n := range []nffg.ID{seg.srcNode, seg.dstNode} {
		if s, ok := dov.SAPs.Lookup(n); ok {
			if _, have := sub.SAPs.Lookup(n); !have {
				p := *s.Port
				_ = sub.AddSAP(&nffg.SAP{ID: n, Name: s.Name, Port: &p})
			}
		}
	}
}

// chainFlowDst resolves the terminal SAP of the chain containing h within
// the request (mirrors the walk the embedding layer performs).
func chainFlowDst(req *nffg.NFFG, h *nffg.SGHop) nffg.ID {
	if h.FlowDst != "" {
		return h.FlowDst
	}
	cur := h
	for steps := 0; steps <= len(req.Hops); steps++ {
		if _, ok := req.SAPs.Lookup(cur.DstNode); ok {
			return cur.DstNode
		}
		var next *nffg.SGHop
		for _, cand := range req.Hops {
			if cand.SrcNode == cur.DstNode {
				next = cand
				break
			}
		}
		if next == nil {
			return ""
		}
		cur = next
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
