package core

// The generation-keyed read path: every layer above the resource orchestrator
// — virtualizers, monitoring, the admission planner, the northbound view API
// — is a *reader* of the DoV, and between commits the DoV does not change.
// Reads are therefore served from two caches keyed by the vector of shard
// generations (cheap to snapshot: the shard directory already holds a per-
// shard gen under its lock):
//
//   - the cut cache holds merged consistent cuts, one per shard set (the
//     all-shard cut and the subsets narrowed groups plan on), so DoV() and
//     batch planning skip nffg.Merge entirely while no member committed;
//   - the view cache holds the virtualizer's output over the all-shard cut,
//     so View() is a pointer return on the steady state.
//
// Cached graphs are Sealed (see nffg.Seal): one immutable graph is shared by
// every reader instead of being defensively copied per call, and a reader
// that needs to mutate copies lazily. A commit invalidates both caches
// implicitly — it bumps its shards' generations, so the next read's vector no
// longer matches and the cut is rebuilt; there is no explicit invalidation
// hook to forget.
//
// The shard directory also carries the reverse index (view node -> owning
// shards, derived from the shards' node sets) that lets ShardSet narrow
// requests without reading any shard graph — including requests with
// unpinned NFs, which previously could not be narrowed at all and serialized
// as exclusive global groups through admission's lanes.

import (
	"fmt"
	"slices"
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

// cutEntry is one cached merged cut. graph is sealed (or nil when no shard
// held a view at cut time).
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
// every shard of the current directory (see lockCurrent: never a departed
// shard beside its survivors). The per-shard graphs are immutable snapshots;
// only the short all-lock rendezvous is paid per read.
func (ro *ResourceOrchestrator) currentCut() (graphs []*nffg.NFFG, vec genVec) {
	_, shs := ro.lockCurrent(nil)
	graphs, gens := readCut(shs)
	unlockAll(shs)
	keys := make([]string, len(shs))
	for i, s := range shs {
		keys[i] = s.key
	}
	return graphs, genVec{keys: keys, gens: gens}
}

// mergeCut merges the live graphs of one cut into a fresh pre-sized graph:
// the uncached merge behind the cut cache. The shard snapshots are sealed, so
// the cut shares their entities instead of copying them (see nffg.Merge);
// nothing writes the cut but a fork of it. Returns nil when no graph is live,
// and the single live graph itself (a sealed shard snapshot) when there is
// exactly one. A merge failure (colliding shard exports) is surfaced to the
// caller and counted in PipelineStats.MergeErrors instead of silently serving
// an incomplete cut. prev is the cached cut this merge replaces (nil if
// none): the fresh graph adopts its compiled topology, which a commit that
// moved only reservations leaves valid.
func (ro *ResourceOrchestrator) mergeCut(graphs []*nffg.NFFG, prev *cutEntry) (*nffg.NFFG, error) {
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
	m := nffg.NewSized(ro.id+"-dov", nInfras, nNFs, nSAPs)
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

// cutCap bounds how many shard sets keep a cached merged cut: the all-shard
// cut every DoV read and global plan uses, plus the subsets narrowed
// admission groups plan on. Subsets recur with request footprints, so in
// practice the population is small; beyond the cap an arbitrary entry is
// evicted. The cache is a pure performance artifact, so any eviction policy
// is correct.
const cutCap = 64

// cutCache caches merged cuts keyed by their sorted shard key list and
// validated against the cut's generation vector. A commit on any member
// shard bumps its generation, so the next read's vector mismatches and the
// cut is remerged: invalidation is implicit. Hits, misses and invalidations
// count under cutStats.
type cutCache struct {
	mu      sync.Mutex
	entries map[string]*cutEntry
}

// mergedCut returns the merged graph of one cut, served from the cut cache
// while the shard set's generation vector is unmoved and rebuilt (then
// cached) otherwise. Returns nil when no shard holds a view.
func (ro *ResourceOrchestrator) mergedCut(graphs []*nffg.NFFG, vec genVec) (*nffg.NFFG, error) {
	key := strings.Join(vec.keys, "\x00")
	ro.cuts.mu.Lock()
	e := ro.cuts.entries[key]
	ro.cuts.mu.Unlock()
	if e != nil && e.vec.equal(vec) {
		ro.cutStats.hits.Add(1)
		return e.graph, nil
	}
	ro.cutStats.misses.Add(1)
	merged, err := ro.mergeCut(graphs, e)
	if err != nil {
		return nil, err
	}
	ro.cuts.mu.Lock()
	if ro.cuts.entries == nil {
		ro.cuts.entries = make(map[string]*cutEntry)
	}
	if _, stale := ro.cuts.entries[key]; stale {
		ro.cutStats.invalidations.Add(1)
	} else if len(ro.cuts.entries) >= cutCap {
		for k := range ro.cuts.entries {
			delete(ro.cuts.entries, k)
			break
		}
	}
	ro.cuts.entries[key] = &cutEntry{vec: vec, graph: merged}
	ro.cuts.mu.Unlock()
	return merged, nil
}

// --- reverse index -----------------------------------------------------------

// shardContribution computes the node identifiers one shard's graph answers
// for on the read/estimate path: its DoV infra nodes, its (border) SAPs, and
// the virtualizer view nodes its infras aggregate into. A node maps to true
// iff it is a SAP: only a SAP two shards both export makes them neighbours in
// the border graph — a view node such as SingleBiSBiS's sits in every shard
// and borders nothing. Commits never change this membership — embeddings add
// NFs and flowrules, not infras or SAPs — so Attach computes it once, on the
// merged graph it publishes, and the directory derives the reverse index and
// the border graph from it (see shardDirectory).
func (ro *ResourceOrchestrator) shardContribution(g *nffg.NFFG) map[nffg.ID]bool {
	out := make(map[nffg.ID]bool, g.Infras.Len()+g.SAPs.Len())
	for id := range g.Infras.All() {
		out[id] = false
	}
	if v, err := ro.virt.View(g); err == nil {
		for id := range v.Infras.All() {
			out[id] = false
		}
	}
	for id := range g.SAPs.All() {
		out[id] = true
	}
	return out
}
