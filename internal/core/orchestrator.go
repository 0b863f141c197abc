package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
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

// lockAfterLosses is how many races one shard group (see runGroup) loses
// optimistically at every layer, leaf or not, before it stops racing: a lost
// race is a commit that found a generation moved, or a plan that rejected
// every request on a cut that moved meanwhile. The next attempt takes the
// group's shard locks before it snapshots and holds them through the commit,
// so it cannot lose again, and contention costs waiting, never a refusal.
const lockAfterLosses = 2

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
// overlapping ones contend, and a loser re-maps on a fresh cut (under the
// group's shard locks once it has lost lockAfterLosses times). Child
// deployments then fan out in parallel goroutines with
// first-error cancellation, so install latency is the slowest child rather
// than the sum of all children.
//
// A leaf (see LocalOrchestrator) is the same pipeline over one terminal
// shard: its graph is the domain's substrate, it has no children, and a
// commit or release is delivered by programming the devices with the shard's
// delta before the swap.
type ResourceOrchestrator struct {
	id       string
	virt     Virtualizer
	mapper   *embed.Mapper
	shardKey ShardKeyFunc
	// prog is set only on a leaf: its one shard is terminal, and commits to
	// it are programmed into the devices instead of fanned out (see program).
	prog Programmer
	// journal receives write-ahead records on the commit paths (may be nil).
	// Appends ride the shard locks they describe, so per-shard record order
	// matches commit order without any global serialization.
	journal Journal

	// dir is the membership value: the attached children, the shards holding
	// their views, and the owner map, reverse index, tombstones and
	// generation floors derived from them (see shardDirectory). Readers load
	// it lock-free; Attach, Reattach, Detach and Restore swap it under mu.
	dir atomic.Pointer[shardDirectory]
	// mu serializes directory swaps and guards the service table and the
	// global NF/hop identifier reservations. Lock order: a shard mutex may be
	// acquired before mu, never while holding mu.
	mu       sync.Mutex
	services map[string]*serviceRecord
	// nfOwner/hopOwner reserve request-graph identifiers globally: shards
	// commit independently, so cross-shard uniqueness of NF and hop IDs (the
	// invariant the old single-graph ApplyTo enforced for free) is checked
	// here at admission instead.
	nfOwner  map[nffg.ID]string
	hopOwner map[string]string

	// gate, when set (see SetDomainGate), vets child availability on the
	// install intake and deploy fan-out paths: the fleet controller installs
	// one so requests targeting a non-ACTIVE domain fail fast and typed.
	gate atomic.Pointer[DomainGate]

	// epoch counts published DoV changes (attach merges, install commits,
	// releases, detaches) across all shards — the logical generation
	// northbound. It moves only in publishLocked, once per publish, under
	// the locks of the shards the publish changes; that also wakes watch
	// waiters.
	epoch atomic.Uint64
	// tableVer counts service-table visibility changes (deploy completions,
	// removal drops) that move the northbound version WITHOUT a DoV commit:
	// the shard vector — and thus the view ETag — is unchanged, but watch
	// streams must still deliver the refreshed service list. The watch
	// cursor (ViewVersion.Generation) is epoch + tableVer; Generation()
	// stays a pure commit counter.
	tableVer atomic.Uint64
	// watch broadcasts epoch bumps to WaitVersion callers (watch streams).
	watch ChangeNotifier

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
	// Busy counts shard groups that lost lockAfterLosses races and planned
	// again under their shard locks (see runGroup).
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
	ro := &ResourceOrchestrator{
		id:       cfg.ID,
		virt:     cfg.Virtualizer,
		mapper:   cfg.Mapper,
		shardKey: cfg.ShardKey,
		journal:  cfg.Journal,
		services: map[string]*serviceRecord{},
		nfOwner:  map[nffg.ID]string{},
		hopOwner: map[string]string{},
	}
	ro.dir.Store(newShardDirectory())
	return ro
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

// ID implements unify.Layer.
func (ro *ResourceOrchestrator) ID() string { return ro.id }

// Attach registers a southbound layer (an infrastructure domain adapter or
// another orchestrator) and folds its view into the DoV shard its shard key
// selects. Children exporting the same SAP IDs are stitched at those border
// SAPs (also across shards: a border SAP shared by two shards appears in
// both, and is the stitch point when their graphs are merged for planning).
// Link IDs are qualified with the child ID so they stay unique across shards.
// ctx bounds the child view fetch (which may be a remote call).
//
// The merge runs on a copy under the shard's lock. The child joins in one
// critical section under ro.mu: the duplicate and infra-collision checks, the
// directory swap and the publish of the merged graph. A failed Attach
// therefore changes nothing, and the child is listed (Children, ShardOf,
// ShardSet's index) exactly when its view is in the DoV.
func (ro *ResourceOrchestrator) Attach(ctx context.Context, d domain.Domain) error {
	id := d.ID()
	if _, dup := ro.dir.Load().children[id]; dup {
		return fmt.Errorf("%w: %s", domain.ErrDuplicate, id)
	}
	view, err := d.View(ctx)
	if err != nil {
		return fmt.Errorf("core: attach %s: %w", id, err)
	}
	// Qualify link IDs: shard graphs are merged on demand for planning, and
	// per-child qualification keeps link identity stable across any merge
	// order (the mapping's path link IDs must resolve in the owning shard).
	qual := view.Copy()
	qual.EditLinks(func(l *nffg.Link) { l.ID = l.ID + "@" + id })
	m := member{id: id, d: d, infras: qual.InfraIDs()}
	key := ro.shardKey(id)
	for {
		dir := ro.dir.Load()
		sh := dir.shards[key]
		if sh == nil {
			// A key detached before resumes its generation counter, so the
			// shard's journal records stay gen-monotone across the cycle.
			floor := dir.floors[key]
			sh = &shard{key: key, gen: floor, commits: floor}
		}
		sh.mu.Lock()
		next := nffg.New(ro.id + "-dov")
		if sh.dov != nil {
			next = sh.dov.Copy()
		}
		mergeErr := next.Merge(qual)
		var nodes map[nffg.ID]bool
		if mergeErr == nil {
			nodes = ro.shardContribution(next.Seal())
		}

		ro.mu.Lock()
		cur := ro.dir.Load()
		if cur.shards[key] != dir.shards[key] {
			// A concurrent attach created the key's shard, or a detach
			// dropped it, since the merge began: merge again.
			ro.mu.Unlock()
			sh.mu.Unlock()
			continue
		}
		err := mergeErr
		if err != nil {
			err = fmt.Errorf("core: merge view of %s: %w", id, err)
		} else {
			err = cur.admits(m)
		}
		if err == nil {
			// The directory moves first: a reader woken by the publish
			// finds the new shard in it and waits on its lock.
			ro.dir.Store(cur.with(sh, nodes, m))
			_ = ro.publishLocked(ctx, []*shard{sh}, []*nffg.NFFG{next}, func(*shard) shardRecord {
				return shardRecord{kind: journal.KindAttach, child: id, view: qual}
			})
		}
		ro.mu.Unlock()
		sh.mu.Unlock()
		return err
	}
}

// admits reports why m cannot join the directory: its child is attached
// already, or another child exports one of its infra nodes. Infra IDs must
// stay unique across shards; the owner map is the authority.
func (d *shardDirectory) admits(m member) error {
	if _, dup := d.children[m.id]; dup {
		return fmt.Errorf("%w: %s", domain.ErrDuplicate, m.id)
	}
	for _, inf := range m.infras {
		if prev, ok := d.owner[inf]; ok {
			return fmt.Errorf("core: attach %s: infra %s already exported by %s", m.id, inf, prev)
		}
	}
	return nil
}

// Children lists the attached child layer IDs whose handles the orchestrator
// holds: a restored child is listed once Reattach hands its handle back.
func (ro *ResourceOrchestrator) Children() []string {
	var out []string
	for id, m := range ro.dir.Load().children {
		if m.d != nil {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// ShardOf returns the DoV shard key an attached child's view lives in.
func (ro *ResourceOrchestrator) ShardOf(child string) (string, bool) {
	m, ok := ro.dir.Load().children[child]
	return m.key, ok
}

// handle returns the domain handle of an attached child, or nil when the
// child is detached, or restored and not yet reattached.
func (ro *ResourceOrchestrator) handle(child string) domain.Domain {
	return ro.dir.Load().children[child].d
}

// Generation returns the DoV epoch: the number of published DoV changes
// (attach merges, install commits, releases, detaches) since start, counted
// once per publish however many shards it changed.
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
	dir := ro.dir.Load()
	for _, id := range sortedKeys(dir.children) {
		if sp, ok := dir.children[id].d.(SouthboundStatsProvider); ok {
			agg.Merge(sp.SouthboundStats())
		}
	}
	return agg
}

// ShardStats reports every DoV shard's generation and commit counters, in
// shard-key order.
func (ro *ResourceOrchestrator) ShardStats() []ShardStats {
	dir := ro.dir.Load()
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
// shards a request's embedding may touch. Every SAP endpoint and NF pin is
// looked up in the directory's reverse index (node -> owning shards, see
// shardDirectory — no shard graph is read and no lock taken); the shards found
// are the anchors. Routing is domain level first: when the anchors are more
// than one shard, the set adds the shards on one shortest border-graph path
// from the first anchor to each other one (two shards border iff they export
// the same SAP), so an unpinned chain plans on the domains its path crosses.
// A plan the narrowed set cannot hold — a host with the CPU or the NF type
// only off the path, an anchor the border graph cannot reach — escalates once
// to a full-DoV pass. nil means the set could not be narrowed at all (unknown
// endpoint or pin, a view node spanning every shard, no SAP anchors): the
// request must be planned globally.
func (ro *ResourceOrchestrator) ShardSet(req *nffg.NFFG) []string {
	if req == nil {
		return nil
	}
	dir := ro.dir.Load()
	set := map[string]bool{}
	for sapID := range req.SAPs.All() {
		keys := dir.index[sapID]
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
			continue // unpinned: placed on the anchors' border paths, or escalated
		}
		keys := dir.index[host]
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
	anchors := sortedKeys(set)
	if len(anchors) == 1 {
		return anchors
	}
	return dir.borderPath(anchors)
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
		return nil, fmt.Errorf("%w: %w", unify.ErrRejected, err)
	}
	return mapping, nil
}

// touchedShards derives the shard set a planned mapping actually occupies:
// the shards owning its NF hosts and every infra node its hop paths cross.
// The home shard (first in key order) carries the mapping's bookkeeping
// records. Falls back to the group's first shard for mappings that touch no
// infra at all (degenerate SAP-to-SAP paths).
func touchedShards(mp *embed.Mapping, dir *shardDirectory, fallback string) (keys []string, home string) {
	set := map[string]bool{}
	add := func(node nffg.ID) {
		if child, ok := dir.owner[node]; ok {
			set[dir.children[child].key] = true
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
	keys = sortedKeys(set)
	if len(keys) == 0 {
		keys = []string{fallback}
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

// reserveLocked enters a service in the table and reserves its request
// graph's NF and hop IDs (none when req is nil), recording them on rec for
// dropReservationsLocked. Intake and Restore both reserve through it. Callers
// hold ro.mu.
func (ro *ResourceOrchestrator) reserveLocked(serviceID string, req *nffg.NFFG, rec *serviceRecord) {
	ro.services[serviceID] = rec
	if req == nil {
		return
	}
	for _, nf := range req.NFIDs() {
		ro.nfOwner[nf] = serviceID
		rec.resNFs = append(rec.resNFs, nf)
	}
	for h := range req.Hops() {
		ro.hopOwner[h.ID] = serviceID
		rec.resHops = append(rec.resHops, h.ID)
	}
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
	if len(ro.dir.Load().keys) == 0 {
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
		rec := &serviceRecord{state: statePending}
		ro.reserveLocked(req.ID, req, rec)
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
	fanOut(len(groups), func(k int) { bc.runGroup(ctx, groups[k].idx, groups[k].keys, true) })

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
	for h := range req.Hops() {
		if owner, taken := ro.hopOwner[h.ID]; taken {
			return fmt.Errorf("%w: hop id %s already in use by service %s", unify.ErrRejected, h.ID, owner)
		}
	}
	return nil
}

// checkDomainsLocked rejects a request whose referenced nodes (SAP endpoints
// and NF host pins) are only served by unavailable child domains: detached
// ones (tombstoned in the directory) or ones the fleet gate vetoes. A node
// with at least one available owner passes — shared border SAPs survive the
// loss of one exporter. Unknown nodes pass through to the global plan, which rejects
// them on their merits. Callers hold ro.mu.
func (ro *ResourceOrchestrator) checkDomainsLocked(req *nffg.NFFG) error {
	gate := ro.gate.Load()
	dir := ro.dir.Load()
	if gate == nil && len(dir.departed) == 0 {
		return nil
	}
	check := func(node nffg.ID) error {
		keys := dir.index[node]
		if len(keys) == 0 {
			if child, gone := dir.departed[node]; gone {
				return fmt.Errorf("%w: node %s belonged to detached domain %s", unify.ErrDomainUnavailable, node, child)
			}
			return nil
		}
		if gate == nil {
			return nil
		}
		var firstErr error
		for _, k := range keys {
			for _, child := range dir.domains[k] {
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
	i int // the request's index in the batch
	// placed is the accepted mapping with its flowrules, derived once on the
	// group's working graph and projected onto every touched shard.
	placed  *embed.Placement
	subs    map[string]*nffg.NFFG
	touched []string // shard keys the mapping occupies (home first)
	home    string
}

// plannedBatch is what one attempt of a shard group planned: the cut it read,
// the working graph with every accepted plan applied, the plans in idx order
// and each member's plan error. held is the cut's shard locks on the locked
// attempt, nil on an optimistic one.
type plannedBatch struct {
	dir    *shardDirectory
	shs    []*shard
	gens   []uint64
	held   []*shard
	cur    *nffg.NFFG
	narrow bool // the cut is a strict subset of the DoV's shards
	plans  []*plannedReq
	errs   []error // per position in idx
}

// runGroup admits one shard group of the batch: it plans the group's live
// members on a cut of its shard set (planGroup), commits the plans
// (commitGroup), and ends every exit in settle. A lost race plans again.
// keys == nil plans against every shard. When mayEscalate is set, plan
// rejections on a narrowed set are deferred to the caller's phase-2 global
// group instead of being final.
//
// After lockAfterLosses lost races the group snapshots, plans and commits
// holding its shard locks, taken in key order like every other multi-shard
// lock. What planning takes besides is ordered after shard locks already:
// ro.mu (the commit and Detach take it under shard locks) and the cut
// cache's mutex, which is held around map accesses only. Its plans touch only
// its own shards, since touchedShards derives them from the cut's nodes.
func (bc *batchRun) runGroup(ctx context.Context, idx []int, keys []string, mayEscalate bool) {
	// Re-scope the batch's positional trace set to this group's members: a
	// stage span recorded below lands in every member's trace.
	gctx := obs.Narrow(ctx, len(bc.reqs), idx)
	lost := 0
	lose := func() {
		if lost++; lost == lockAfterLosses {
			bc.ro.stats.busy.Add(1)
		}
	}
	for attempts := 1; ; attempts++ {
		if err := ctx.Err(); err != nil {
			bc.settle(ctx, idx, nil, attempts, false, err)
			return
		}
		pb, err := bc.planGroup(gctx, idx, keys, attempts, lost >= lockAfterLosses)
		if err != nil {
			bc.settle(ctx, idx, nil, attempts, false, err)
			return
		}
		if len(pb.plans) == 0 {
			// Nothing mappable on this cut. If a concurrent commit moved one
			// of the group's shards meanwhile the failures may be stale (e.g.
			// a Remove just freed the conflicting resources) — retry fresh;
			// otherwise they are final (or escalate to a global plan). Under
			// the group's locks nothing moved.
			if pb.held == nil {
				lockAll(pb.shs)
				_, gens := readCut(pb.shs)
				unlockAll(pb.shs)
				if !slices.Equal(gens, pb.gens) {
					lose()
					continue
				}
			}
			unlockAll(pb.held)
			bc.settle(ctx, idx, pb, attempts, mayEscalate && pb.narrow, nil)
			return
		}
		raced, err := bc.commitGroup(gctx, pb)
		if raced {
			lose()
			continue
		}
		bc.settle(ctx, idx, pb, attempts, mayEscalate && pb.narrow, err)
		return
	}
}

// planGroup is the step that plans: it reads a cut of the group's shards
// from the current directory (so no plan can commit onto a shard a detach
// has dropped), merges it, and maps each live member in idx order, every one
// over the residual capacity its predecessors left. The optimistic attempt
// plans with the shard locks released; the locked one keeps them in held.
// An error fails the whole group, and planGroup has released its locks.
func (bc *batchRun) planGroup(gctx context.Context, idx []int, keys []string, attempt int, locked bool) (*plannedBatch, error) {
	ro := bc.ro
	ro.stats.mapAttempts.Add(1)
	span, _ := obs.StartSpan(gctx, "orchestrator.map", "attempt", strconv.Itoa(attempt))
	start := time.Now()
	dir, shs := ro.lockCurrent(keys)
	graphs, gens := readCut(shs)
	pb := &plannedBatch{dir: dir, shs: shs, gens: gens, narrow: keys != nil && len(keys) < len(dir.keys), errs: make([]error, len(idx))}
	if locked {
		pb.held = shs
	} else {
		unlockAll(shs)
	}

	// The group's working graph: a consistent merge of its shards. The whole
	// group shares ONE working fork — each accepted mapping is realized on it
	// in place (embed.ApplyTo), so admitting N requests costs one fork
	// instead of N. The merge comes from the generation-keyed cut cache:
	// between commits to its shards it is skipped entirely, and a full-DoV
	// group reads the same sealed cut every reader sees.
	var base *nffg.NFFG
	var err error
	switch {
	case len(shs) == 1:
		base = graphs[0]
	case len(shs) > 1:
		skeys := make([]string, len(shs))
		for i, s := range shs {
			skeys[i] = s.key
		}
		if base, err = ro.mergedCut(graphs, genVec{keys: skeys, gens: gens}); err != nil {
			log.Printf("core %s: merging shard snapshots: %v", ro.id, err)
			err = fmt.Errorf("%w: shard views unmergeable: %v", unify.ErrRejected, err)
		}
	}
	if err == nil && base == nil {
		err = fmt.Errorf("%w: no domains attached", unify.ErrRejected)
	}
	if err != nil {
		unlockAll(pb.held)
		span.EndWith(err)
		return nil, err
	}
	cur := base
	for j, i := range idx {
		if !bc.live[i] {
			continue
		}
		req := bc.reqs[i]
		mapping, err := ro.plan(cur, req)
		if err != nil {
			pb.errs[j] = err
			continue
		}
		placed, err := embed.Place(cur, mapping)
		var subs map[string]*nffg.NFFG
		if err == nil {
			// Neither the split nor the shard set reads cur, so a mapping
			// that cannot be split is refused before anything is applied.
			subs, err = ro.split(base, dir.owner, req.ID, mapping)
		}
		if err != nil {
			pb.errs[j] = fmt.Errorf("%w: %w", unify.ErrRejected, err)
			continue
		}
		touched, home := touchedShards(mapping, dir, shs[0].key)
		if cur == base {
			cur = base.Fork()
		}
		if err := placed.ApplyTo(cur); err != nil {
			pb.errs[j] = fmt.Errorf("%w: %w", unify.ErrRejected, err)
			// The ApplyTo failed partway and may have left cur inconsistent:
			// rebuild it by replaying the accepted mappings on a fresh fork
			// (deterministic — they applied cleanly before).
			cur = base.Fork()
			for _, p := range pb.plans {
				if rerr := p.placed.ApplyTo(cur); rerr != nil {
					log.Printf("core %s: batch replay inconsistency: %v", ro.id, rerr)
				}
			}
			continue
		}
		pb.plans = append(pb.plans, &plannedReq{i: i, placed: placed, subs: subs, touched: touched, home: home})
	}
	pb.cur = cur
	ro.histMap.Observe(time.Since(start))
	span.End()
	return pb, nil
}

// commitGroup is the step that commits: it locks the shards the plans touch
// (unless the locked attempt holds the cut's already), checks their
// generations against the cut, projects the plans onto every touched shard
// when the commit is not the single-shard fast path, publishes them, and
// records each mapping in the service table. raced reports a lost race: a
// touched shard moved since the cut, and the group plans again. An error (a
// failed projection, a refused delta) means nothing was published. It
// releases every lock it or the plan step took.
func (bc *batchRun) commitGroup(gctx context.Context, pb *plannedBatch) (raced bool, err error) {
	ro := bc.ro
	var tkeys []string
	for _, p := range pb.plans {
		tkeys = append(tkeys, p.touched...)
	}
	tshs := pb.dir.ordered(tkeys)
	span, cctx := obs.StartSpan(gctx, "orchestrator.commit", "shards", strconv.Itoa(len(tshs)))
	start := time.Now()
	held := pb.held
	if held == nil {
		lockAll(tshs)
		held = tshs
	}
	defer unlockAll(held)
	genByKey := make(map[string]uint64, len(pb.shs))
	for i, s := range pb.shs {
		genByKey[s.key] = pb.gens[i]
	}
	for _, s := range tshs {
		if s.gen != genByKey[s.key] {
			s.conflicts++
			raced = true
		}
	}
	if raced {
		ro.stats.genConflicts.Add(1)
		span.EndWith(fmt.Errorf("%w: DoV generation advanced during mapping", unify.ErrBusy))
		return true, nil
	}
	// Single-shard fast path: the working fork IS the shard's next snapshot.
	next := []*nffg.NFFG{pb.cur}
	if len(pb.shs) != 1 || len(tshs) != 1 || tshs[0] != pb.shs[0] {
		if next, err = bc.projectLocked(tshs, pb); err != nil {
			log.Printf("core %s: scoped commit projection failed: %v", ro.id, err)
			span.EndWith(err)
			return false, fmt.Errorf("%w: commit projection failed: %v", unify.ErrRejected, err)
		}
	}
	err = ro.publishLocked(cctx, tshs, next, func(s *shard) shardRecord {
		return shardRecord{kind: journal.KindCommit, services: bc.commitServices(s.key, pb.plans)}
	})
	if err != nil {
		// A terminal shard refused its delta: nothing was published.
		span.EndWith(err)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Keep the context error identity: the caller canceled, the
			// request was not rejected on its merits.
			return false, fmt.Errorf("core %s: programming canceled: %w", ro.id, err)
		}
		return false, fmt.Errorf("%w: programming failed: %w", unify.ErrRejected, err)
	}
	// Record each committed mapping in the service table before the shard
	// locks drop: the checkpointer reads shard graphs first and the table
	// second, so any graph state containing a commit must already find its
	// mapping in the table (see ShardSnapshots).
	ro.mu.Lock()
	for _, p := range pb.plans {
		bc.records[p.i].mapping = p.placed.Mapping
		bc.records[p.i].shards = p.touched
	}
	ro.mu.Unlock()
	if len(tshs) > 1 {
		ro.stats.multiShard.Add(1)
	}
	ro.histCommit.Observe(time.Since(start))
	span.End()
	return false, nil
}

// projectLocked replays the group's accepted mappings onto forks of the
// touched shards' graphs (callers hold every shard lock in tshs) and returns
// the forks, in tshs order, for one publish. Each shard receives exactly its
// slice of each mapping, installing its share of the flowrules the mapping's
// placement derived once on the working graph; the mapping's home shard also
// records the bookkeeping hop/requirement entries. A failure returns before
// anything is published, so a half-committed multi-shard group is impossible.
func (bc *batchRun) projectLocked(tshs []*shard, pb *plannedBatch) ([]*nffg.NFFG, error) {
	next := make([]*nffg.NFFG, len(tshs))
	for si, s := range tshs {
		g := nffg.New(bc.ro.id + "-dov")
		if s.dov != nil {
			g = s.dov.Fork()
		}
		for _, p := range pb.plans {
			if !slices.Contains(p.touched, s.key) {
				continue
			}
			if err := p.placed.ApplyScoped(g, pb.cur, s.key == p.home); err != nil {
				return nil, fmt.Errorf("shard %s, request %s: %w", s.key, bc.reqs[p.i].ID, err)
			}
		}
		next[si] = g
	}
	return next, nil
}

// commitServices builds one shard's commit record: the services whose
// mappings a group's publish committed on it, duplicated into every touched
// shard's record so every log replays self-contained.
func (bc *batchRun) commitServices(key string, plans []*plannedReq) []journal.ServiceCommit {
	var svcs []journal.ServiceCommit
	for _, p := range plans {
		if slices.Contains(p.touched, key) {
			svcs = append(svcs, journal.ServiceCommit{
				ServiceID: bc.reqs[p.i].ID,
				Mapping:   p.placed.Mapping,
				Touched:   p.touched,
				Home:      p.home,
			})
		}
	}
	return svcs
}

// settle is where every exit of a shard group ends. Each live member adds
// the group's attempts to its Attempts and then is admitted (its plan was
// committed), escalated to the phase-2 global group, or aborted: with the
// group's error err, or else with its own plan error. pb is nil only with
// err. The admitted requests count as one batch and deploy in parallel.
func (bc *batchRun) settle(ctx context.Context, idx []int, pb *plannedBatch, attempts int, escalate bool, err error) {
	var admitted []*plannedReq
	if err == nil {
		admitted = pb.plans
	}
	rest := admitted
	for j, i := range idx {
		if !bc.live[i] {
			continue
		}
		bc.out[i].Attempts += attempts
		switch {
		case err != nil:
			bc.abort(i, err)
		case len(rest) > 0 && rest[0].i == i:
			rest = rest[1:]
			if bc.obs.Admitted != nil {
				bc.obs.Admitted(i)
			}
		case escalate:
			bc.escalate(i)
		default:
			bc.abort(i, pb.errs[j])
		}
	}
	if len(admitted) == 0 {
		return
	}
	bc.ro.stats.batches.Add(1)
	bc.ro.stats.batchedReqs.Add(uint64(len(admitted)))
	fanOut(len(admitted), func(k int) { bc.deploy(ctx, admitted[k]) })
}

// deploy delivers one committed request: it fans the sub-requests out to the
// children and marks the service ready, or releases its reservation when a
// child fails. A terminal shard has no children — its commit already
// programmed the devices — so its receipt is the mapping alone, and it keeps
// no copy: only Restore and the resume plans read a receipt back.
func (bc *batchRun) deploy(ctx context.Context, p *plannedReq) {
	i := p.i
	defer bc.conclude(i)
	ro := bc.ro
	id := bc.reqs[i].ID
	receipt := mappingReceipt(id, p.placed.Mapping)
	var children map[string][]string // child -> sub-service IDs installed there
	if ro.prog == nil {
		names := sortedKeys(p.subs)
		// Per-request deploy scope: narrow from the batch context (not the
		// group's — Narrow indices address the original positional set).
		dctx := obs.Narrow(ctx, len(bc.reqs), []int{i})
		receipts, err := ro.deployChildren(dctx, names, p.subs)
		if err != nil {
			if rerr := ro.releaseShards(dctx, id, p.placed.Mapping, p.touched); rerr != nil {
				log.Printf("core %s: releasing aborted install %s: %v", ro.id, id, rerr)
			}
			bc.abort(i, err)
			return
		}
		receipt.Children = make(map[string]*unify.Receipt, len(names))
		children = make(map[string][]string, len(names))
		for ci, childID := range names {
			receipt.Children[childID] = receipts[ci]
			children[childID] = []string{p.subs[childID].ID}
		}
	}
	ro.mu.Lock()
	rec := bc.records[i]
	rec.children = children
	if ro.prog == nil {
		rec.receipt = receipt
	}
	rec.state = stateReady
	ro.mu.Unlock()
	// The commit bump fired before the deploy finished, so a watcher woken
	// by it read Services() without this entry. Advance the table version
	// now that the service is northbound-visible so watch streams get a
	// fresh event carrying the completed list.
	ro.bumpTable()
	if ro.journal != nil {
		// Appended AFTER the table update: the checkpointer snapshots the
		// table, so everything a deployed record carries is visible to any
		// checkpoint taken after the append.
		err := ro.journal.LogDeployed(p.home, ro.epoch.Load(), journal.DeployedRecord{
			ServiceID: id, Children: children, Receipt: receipt,
		})
		if err != nil {
			ro.stats.journalErrs.Add(1)
			log.Printf("core %s: journal deployed %s: %v", ro.id, id, err)
		}
	}
	bc.out[i].Receipt = receipt
	ro.stats.installs.Add(1)
}

// fanOut runs fn(0..n-1) concurrently and returns when all are done. The
// last runs on the caller's goroutine: a single group or deploy — every one
// at a leaf — spawns nothing, so the mapper's deep recursion reuses the
// caller's grown stack instead of regrowing a fresh goroutine's.
func fanOut(n int, fn func(k int)) {
	var wg sync.WaitGroup
	for k := 0; k < n-1; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(k)
		}()
	}
	if n > 0 {
		fn(n - 1)
	}
	wg.Wait()
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

// deployChildren installs the per-child sub-requests in parallel (fanOut).
// The first failure cancels the context handed to the siblings, already
// deployed children are rolled back, and the first (root-cause) error is
// returned.
func (ro *ResourceOrchestrator) deployChildren(ctx context.Context, children []string, subs map[string]*nffg.NFFG) ([]*unify.Receipt, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	receipts := make([]*unify.Receipt, len(children))
	errs := make([]error, len(children))
	fanOut(len(children), func(i int) {
		childID := children[i]
		span, sctx := obs.StartSpan(cctx, "deploy.child", "child", childID)
		var err error
		if d := ro.handle(childID); d == nil {
			// The child detached between commit and fan-out.
			err = fmt.Errorf("%w: child %s is not attached", unify.ErrDomainUnavailable, childID)
		} else if err = ro.gateErr(childID); err == nil {
			receipts[i], err = d.Install(sctx, subs[childID])
		}
		span.EndWith(err)
		if err != nil {
			errs[i] = err
			cancel() // first error cancels the sibling deploys
		}
	})
	firstErr := pickRootCause(children, errs)
	if firstErr == nil {
		return receipts, nil
	}
	// Roll back whatever landed, detached from the canceled deploy context so
	// teardown still runs after a northbound cancellation.
	landed := map[string][]string{}
	for i, childID := range children {
		if receipts[i] != nil && errs[i] == nil {
			landed[childID] = []string{subs[childID].ID}
		}
	}
	if err := ro.teardown(context.WithoutCancel(ctx), landed); err != nil {
		log.Printf("core %s: rollback: %v", ro.id, err)
	}
	return nil, firstErr
}

// pickRootCause selects the error to surface from a fan-out: the first
// non-cancellation child error (the root cause) if any, wrapped in
// ErrRejected beside it, so errors.Is still finds the child's cause. A
// purely-canceled fan-out keeps the context error identity
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
			return fmt.Errorf("%w: child %s rejected: %w", unify.ErrRejected, children[i], err)
		}
	}
	return first
}

// releaseShards returns a mapping's resources to the shards it occupies
// (each shard's release runs on a fork that replaces the current snapshot
// under the shard's lock; the shards are locked together in key order so the
// release is observed atomically). A terminal shard programs the teardown
// delta first: if the release or the programming fails, nothing changes and
// the error is returned.
func (ro *ResourceOrchestrator) releaseShards(ctx context.Context, serviceID string, mp *embed.Mapping, keys []string) error {
	_, shs := ro.lockCurrent(keys)
	defer unlockAll(shs)
	if len(shs) == 0 {
		return nil
	}
	var firstErr error
	next := make([]*nffg.NFFG, len(shs))
	for si, s := range shs {
		g, err := releaseFork(s, mp)
		firstErr = cmp.Or(firstErr, err)
		next[si] = g
	}
	if firstErr != nil && ro.prog != nil {
		return firstErr
	}
	// A shard whose release failed keeps its graph but still publishes (its
	// generation moves), so optimistic mappers re-read.
	return cmp.Or(firstErr, ro.publishLocked(ctx, shs, next, func(*shard) shardRecord {
		return shardRecord{kind: journal.KindRelease, ids: []string{serviceID}}
	}))
}

// releaseFork returns a fork of the shard's graph with the mappings'
// resources released, or nil (with the error, if any) when the shard holds no
// graph or a release failed. Callers hold the shard lock.
func releaseFork(s *shard, mps ...*embed.Mapping) (*nffg.NFFG, error) {
	if s.dov == nil {
		return nil, nil
	}
	g := s.dov.Fork()
	for _, mp := range mps {
		if err := embed.Release(g, mp); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// shardRecord is the journal record one publish appends on one shard; kind
// selects which of the other fields it carries.
type shardRecord struct {
	kind     journal.Kind
	child    string                  // attach, detach: the child domain
	view     *nffg.NFFG              // attach: the child's qualified view
	services []journal.ServiceCommit // commit: the mappings the shard took
	ids      []string                // release, detach: the services let go
}

// publishLocked is the one step that changes DoV shards. The caller holds
// the locks of shs, taken in key order; next[i] is shs[i]'s next graph (nil:
// unchanged). A terminal shard programs its delta first, and a refused delta
// publishes nothing and returns the error. Then every shard swaps to its next
// graph and counts one generation (a multi-shard commit when len(shs) > 1),
// the epoch moves once (watch waiters it wakes wait on the shard locks for
// the new graphs), and record's journal record for each shard is appended
// inside the same critical section, so a shard's records stay in its commit
// order and one publish's records share an epoch. A failed append never
// fails the publish: the change already happened.
func (ro *ResourceOrchestrator) publishLocked(ctx context.Context, shs []*shard, next []*nffg.NFFG, record func(*shard) shardRecord) error {
	if next[0] != nil {
		if err := ro.program(ctx, shs[0].dov, next[0]); err != nil {
			return err
		}
	}
	for i, s := range shs {
		if next[i] != nil {
			s.dov = next[i].Seal()
		}
		s.gen++
		s.commits++
		if len(shs) > 1 {
			s.multi++
		}
	}
	epoch := ro.epoch.Add(1)
	ro.watch.Wake()
	if ro.journal == nil {
		return nil
	}
	for _, s := range shs {
		var err error
		r := record(s)
		switch r.kind {
		case journal.KindAttach:
			err = ro.journal.LogAttach(s.key, s.gen, epoch, r.child, ro.id+"-dov", r.view)
		case journal.KindCommit:
			err = ro.journal.LogCommit(s.key, s.gen, epoch, r.services)
		case journal.KindRelease:
			err = ro.journal.LogRelease(s.key, s.gen, epoch, r.ids)
		case journal.KindDetach:
			err = ro.journal.LogDetach(s.key, s.gen, epoch, r.child, r.ids)
		}
		if err != nil {
			ro.stats.journalErrs.Add(1)
			log.Printf("core %s: journal %s on %s: %v", ro.id, r.kind, s.key, err)
			continue
		}
		s.journalRecs++
	}
	return nil
}

// program delivers a terminal commit: the devices receive the delta from the
// shard's current graph to next. Callers hold the shard lock, so a domain's
// devices are programmed one delta at a time (deltas are relative to the
// configured state). A no-op above the leaf.
func (ro *ResourceOrchestrator) program(ctx context.Context, cur, next *nffg.NFFG) error {
	if ro.prog == nil {
		return nil
	}
	delta, err := nffg.Diff(cur, next)
	if err != nil {
		return fmt.Errorf("core %s: diff: %w", ro.id, err)
	}
	// The adapter's per-datapath flush spans nest under this one via pctx.
	span, pctx := obs.StartSpan(ctx, "local.program", "domain", ro.id)
	err = ro.prog.Commit(pctx, delta, next)
	span.EndWith(err)
	return err
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

	firstErr := ro.teardown(ctx, rec.children)
	var releaseErr error
	if firstErr == nil {
		releaseErr = ro.releaseShards(ctx, serviceID, rec.mapping, rec.shards)
		if releaseErr != nil && ro.prog != nil {
			// A refused terminal teardown changed nothing: the devices still
			// run the service.
			firstErr = fmt.Errorf("core %s: programming teardown: %w", ro.id, releaseErr)
		}
	}
	if firstErr != nil {
		// Partial or refused teardown: keep the record (and the DoV
		// reservation, since children or devices may still hold resources)
		// so the caller can retry.
		ro.mu.Lock()
		rec.state = stateReady
		ro.mu.Unlock()
		return firstErr
	}
	ro.mu.Lock()
	ro.dropReservationsLocked(serviceID, rec)
	ro.mu.Unlock()
	// releaseShards bumped before the record dropped; watchers woken there
	// could still list the service. Advance the table version so the stream
	// converges on the post-removal service table.
	ro.bumpTable()
	return releaseErr
}

// teardown removes sub-services from children (child -> sub-service IDs):
// one goroutine per child, best-effort (siblings are not canceled on error).
// A child without a handle was detached at runtime, so its sub-services
// died with the domain; a sub-service its child no longer knows was torn down
// by an earlier partial attempt. Both count as done. It returns the first
// error in child order.
func (ro *ResourceOrchestrator) teardown(ctx context.Context, subs map[string][]string) error {
	if len(subs) == 0 {
		return nil // nothing to tear down (a leaf's services): no fan-out closure to allocate
	}
	children := sortedKeys(subs)
	errs := make([]error, len(children))
	fanOut(len(children), func(i int) {
		d := ro.handle(children[i])
		if d == nil {
			return
		}
		for _, subID := range subs[children[i]] {
			if err := d.Remove(ctx, subID); err != nil && !errors.Is(err, unify.ErrUnknownService) && errs[i] == nil {
				errs[i] = fmt.Errorf("core: remove %s on %s: %w", subID, children[i], err)
			}
		}
	})
	return cmp.Or(errs...)
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
// nodes of different children. A terminal shard has no children: nil. The
// sub-requests come back sealed.
func (ro *ResourceOrchestrator) split(snap *nffg.NFFG, owner map[nffg.ID]string, serviceID string, mp *embed.Mapping) (map[string]*nffg.NFFG, error) {
	if ro.prog != nil {
		return nil, nil
	}
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
	for h := range mp.Request.Hops() {
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
	// Nothing writes a sub-request once split: sealed, an in-process child
	// plans on it without a defensive copy.
	for _, sub := range subs {
		sub.Seal()
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
	for steps := 0; steps <= req.NumHops(); steps++ {
		if _, ok := req.SAPs.Lookup(cur.DstNode); ok {
			return cur.DstNode
		}
		var next *nffg.SGHop
		for cand := range req.Hops() {
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
