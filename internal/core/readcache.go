package core

// The generation-keyed read path: every layer above the resource orchestrator
// — virtualizers, monitoring, the admission planner, the northbound view API
// — is a *reader* of the DoV, and between commits the DoV does not change.
// Reads are therefore served from two caches keyed by the vector of shard
// generations (cheap to snapshot: the shard directory already holds a per-
// shard gen under its lock):
//
//   - the cut cache holds the merged all-shard consistent cut, so DoV() and
//     batch planning skip nffg.Merge entirely while no shard committed;
//   - the view cache holds the virtualizer's output over that cut, so View()
//     is a pointer return on the steady state.
//
// Cached graphs are Sealed (see nffg.Seal): one immutable graph is shared by
// every reader instead of being defensively copied per call, and a reader
// that needs to mutate copies lazily. A commit invalidates both caches
// implicitly — it bumps its shards' generations, so the next read's vector no
// longer matches and the cut is rebuilt; there is no explicit invalidation
// hook to forget.
//
// The same attach-time bookkeeping also maintains the reverse index (view
// node -> owning shards) that lets ShardSet narrow requests without reading
// any shard graph — including requests with unpinned NFs, which previously
// could not be narrowed at all and serialized as exclusive global groups
// through admission's lanes.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/unify-repro/escape/internal/nffg"
)

// CacheStats are one read cache's cumulative counters.
type CacheStats struct {
	// Hits counts reads served from the cached graph.
	Hits uint64 `json:"hits"`
	// Misses counts reads that had to rebuild (first read, or a generation
	// moved).
	Misses uint64 `json:"misses"`
	// Invalidations counts misses that replaced a previously valid entry —
	// i.e. rebuilds caused by a committed DoV change rather than a cold cache.
	Invalidations uint64 `json:"invalidations"`
}

// cacheCounters is the atomic backing of CacheStats.
type cacheCounters struct {
	hits, misses, invalidations atomic.Uint64
}

func (c *cacheCounters) snapshot() CacheStats {
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// genVec identifies one consistent cut: the shard keys (in key order) and the
// generation each shard had when the cut was taken. Two equal vectors denote
// byte-identical cuts, because a shard's graph is replaced only under a
// generation bump.
type genVec struct {
	keys []string
	gens []uint64
}

func (v genVec) equal(o genVec) bool {
	return slices.Equal(v.keys, o.keys) && slices.Equal(v.gens, o.gens)
}

// cutEntry is one cached merged all-shard cut. graph is sealed (or nil when
// no shard held a view at cut time).
type cutEntry struct {
	vec   genVec
	graph *nffg.NFFG
}

// viewEntry is one cached virtualizer output over a cut. view is sealed.
type viewEntry struct {
	vec  genVec
	view *nffg.NFFG
}

// currentCut snapshots a consistent (graphs, generation-vector) cut across
// every shard. The per-shard graphs are immutable snapshots; only the short
// all-lock rendezvous in snapshotCut is paid per read.
func (ro *ResourceOrchestrator) currentCut() (graphs []*nffg.NFFG, vec genVec) {
	dir, _ := ro.snapshotDir()
	shs := dir.ordered(dir.keys)
	graphs, gens := snapshotCut(shs)
	keys := make([]string, len(shs))
	for i, s := range shs {
		keys[i] = s.key
	}
	return graphs, genVec{keys: keys, gens: gens}
}

// mergeCut merges the live graphs of one cut into a fresh pre-sized graph —
// the uncached merge shared by the cut cache and scoped (narrowed-group)
// planning. The shard snapshots are sealed, so the cut shares their entities
// instead of copying them (see nffg.Merge); nothing writes the cut but a
// fork of it. Returns nil when no graph is live, and the single live graph
// itself (a sealed shard snapshot) when there is exactly one. A merge
// failure (colliding shard exports) is surfaced to the caller and counted in
// PipelineStats.MergeErrors instead of silently serving an incomplete cut.
// prev is the cached cut this merge replaces (nil if none): the fresh graph
// adopts its compiled topology, which a commit that moved only reservations
// leaves valid.
func (ro *ResourceOrchestrator) mergeCut(id string, graphs []*nffg.NFFG, prev *cutEntry) (*nffg.NFFG, error) {
	var live []*nffg.NFFG
	nInfras, nNFs, nSAPs := 0, 0, 0
	for _, g := range graphs {
		if g != nil {
			live = append(live, g)
			nInfras += g.Infras.Len()
			nNFs += g.NFs.Len()
			nSAPs += g.SAPs.Len()
		}
	}
	switch len(live) {
	case 0:
		return nil, nil
	case 1:
		return live[0], nil
	}
	m := nffg.NewSized(id, nInfras, nNFs, nSAPs)
	for _, g := range live {
		if err := m.Merge(g); err != nil {
			ro.stats.mergeErrors.Add(1)
			return nil, fmt.Errorf("core %s: merging shard views: %w", ro.id, err)
		}
	}
	if prev != nil {
		m.AdoptShape(prev.graph)
	}
	// Sealed here, before the graph can escape to another goroutine: every
	// return path of mergeCut hands out a sealed (or nil) graph, and re-
	// sealing a shared snapshot later would be a racy write.
	return m.Seal(), nil
}

// mergedFromCut returns the merged graph of a full-DoV cut, served from the
// cut cache when the generation vector still matches and rebuilt (then
// sealed and cached) otherwise. Returns nil when no shard holds a view.
func (ro *ResourceOrchestrator) mergedFromCut(graphs []*nffg.NFFG, vec genVec) (*nffg.NFFG, error) {
	e := ro.cutCache.Load()
	if !ro.noReadCache && e != nil && e.vec.equal(vec) {
		ro.cutStats.hits.Add(1)
		return e.graph, nil
	}
	ro.cutStats.misses.Add(1)
	merged, err := ro.mergeCut(ro.id+"-dov", graphs, e)
	if err != nil {
		return nil, err
	}
	if !ro.noReadCache {
		if old := ro.cutCache.Load(); old != nil {
			ro.cutStats.invalidations.Add(1)
		}
		ro.cutCache.Store(&cutEntry{vec: vec, graph: merged})
	}
	return merged, nil
}

// --- scoped cuts -------------------------------------------------------------

// scopedCutCap bounds how many distinct shard subsets keep a cached merged
// cut. Subsets are created by admission's narrowed groups, so in practice the
// population is small (recurring request footprints); beyond the cap an
// arbitrary entry is evicted — the cache is a pure performance artifact, so
// any eviction policy is correct.
const scopedCutCap = 64

// scopedCutCache caches merged cuts of shard SUBSETS (narrowed admission
// groups), keyed by the subset's sorted key list and validated against its
// generation vector — the same discipline as the all-shard cut cache, which
// stays a separate single atomic entry because every reader hits it. Hits,
// misses and invalidations ride the same cutStats counters.
type scopedCutCache struct {
	mu      sync.Mutex
	entries map[string]*cutEntry
}

// mergedFromScopedCut returns the merged graph of a shard-subset cut, served
// from the scoped cut cache while the subset's generation vector is unmoved
// and rebuilt (then cached) otherwise. A commit on any subset member bumps
// its generation, so the next read's vector mismatches and the cut is
// remerged — invalidation is implicit, exactly like the all-shard cache.
func (ro *ResourceOrchestrator) mergedFromScopedCut(graphs []*nffg.NFFG, vec genVec) (*nffg.NFFG, error) {
	key := strings.Join(vec.keys, "\x00")
	ro.scopedCuts.mu.Lock()
	e := ro.scopedCuts.entries[key]
	ro.scopedCuts.mu.Unlock()
	if !ro.noReadCache && e != nil && e.vec.equal(vec) {
		ro.cutStats.hits.Add(1)
		return e.graph, nil
	}
	ro.cutStats.misses.Add(1)
	merged, err := ro.mergeCut(ro.id+"-plan", graphs, e)
	if err != nil {
		return nil, err
	}
	if !ro.noReadCache {
		ro.scopedCuts.mu.Lock()
		if ro.scopedCuts.entries == nil {
			ro.scopedCuts.entries = make(map[string]*cutEntry, scopedCutCap)
		}
		if _, stale := ro.scopedCuts.entries[key]; stale {
			ro.cutStats.invalidations.Add(1)
		} else if len(ro.scopedCuts.entries) >= scopedCutCap {
			for k := range ro.scopedCuts.entries {
				delete(ro.scopedCuts.entries, k)
				break
			}
		}
		ro.scopedCuts.entries[key] = &cutEntry{vec: vec, graph: merged}
		ro.scopedCuts.mu.Unlock()
	}
	return merged, nil
}

// --- reverse index -----------------------------------------------------------

// shardContrib is one shard's recorded contribution to the reverse index,
// tagged with the shard generation the contributing graph carried so a late
// Attach writer can never clobber a newer sibling's record.
type shardContrib struct {
	gen   uint64
	nodes map[nffg.ID]bool
}

// shardContribution computes the node identifiers one shard's graph answers
// for on the read/estimate path: its DoV infra nodes, its (border) SAPs, and
// the virtualizer view nodes its infras aggregate into. Commits never change
// this membership — embeddings add NFs and flowrules, not infras or SAPs —
// so the index only needs rebuilding at attach time.
func (ro *ResourceOrchestrator) shardContribution(g *nffg.NFFG) map[nffg.ID]bool {
	out := make(map[nffg.ID]bool, g.Infras.Len()+g.SAPs.Len())
	for id := range g.Infras.All() {
		out[id] = true
	}
	for id := range g.SAPs.All() {
		out[id] = true
	}
	if v, err := ro.virt.View(g); err == nil {
		for id := range v.Infras.All() {
			out[id] = true
		}
	}
	return out
}

// rebuildIndexLocked derives the node -> sorted shard keys index from the
// per-shard contributions. Callers hold ro.mu; the maps are replaced
// wholesale so ShardSet can read a snapshot lock-free after one mu hop.
func (ro *ResourceOrchestrator) rebuildIndexLocked() {
	idx := make(map[nffg.ID][]string)
	keys := make([]string, 0, len(ro.contrib))
	for k := range ro.contrib {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic, pre-sorted per-node key lists
	for _, key := range keys {
		for node := range ro.contrib[key].nodes {
			idx[node] = append(idx[node], key)
		}
	}
	ro.index = idx
}
