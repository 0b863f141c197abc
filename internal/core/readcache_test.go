package core

// Tests of the generation-keyed read path: the cut cache, the virtualizer
// memoization, merge-error propagation, and — run with -race — a harness
// where readers hammer View/DoV through the caches while writers churn
// single- and multi-shard commits. The invariants: a view is never torn
// (multi-shard commits appear atomically), never stale past a completed
// commit (an Install/Remove that returned is visible to the next read), and
// always corresponds to one consistent generation vector.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// TestCutCacheGenerationKeyed: between commits, repeated DoV reads are served
// from one cached sealed cut (pointer-identical); a commit invalidates it.
func TestCutCacheGenerationKeyed(t *testing.T) {
	ro, _ := lineRO(t, 3, 0, nil)
	d1 := mustDoV(t, ro)
	d2 := mustDoV(t, ro)
	if d1 != d2 {
		t.Fatal("steady-state DoV reads must share one cached cut")
	}
	if !d1.Sealed() {
		t.Fatal("the cached cut must be sealed")
	}
	st := ro.PipelineStats()
	if st.CutCache.Hits == 0 {
		t.Fatalf("no cut-cache hit recorded: %+v", st.CutCache)
	}

	if _, err := ro.Install(context.Background(), chainReq(t, "svc", "sap1", "b0", "fw")); err != nil {
		t.Fatal(err)
	}
	d3 := mustDoV(t, ro)
	if d3 == d1 {
		t.Fatal("a committed install must invalidate the cached cut")
	}
	if _, ok := d3.NFs.Lookup("svc-nf"); !ok {
		t.Fatalf("fresh cut misses the committed NF: %v", d3.NFIDs())
	}
	st = ro.PipelineStats()
	if st.CutCache.Invalidations == 0 {
		t.Fatalf("invalidation not counted: %+v", st.CutCache)
	}
	if err := ro.Remove(context.Background(), "svc"); err != nil {
		t.Fatal(err)
	}
}

// TestViewMemoization: View is a pointer return on the steady state, rebuilt
// exactly when a shard generation moves.
func TestViewMemoization(t *testing.T) {
	ro, _ := lineRO(t, 3, 0, nil)
	ctx := context.Background()
	v1, err := ro.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ro.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("steady-state views must share one memoized graph")
	}
	if !v1.Sealed() {
		t.Fatal("the memoized view must be sealed")
	}
	if st := ro.PipelineStats(); st.ViewCache.Hits == 0 {
		t.Fatalf("no view-cache hit recorded: %+v", st.ViewCache)
	}

	if _, err := ro.Install(ctx, chainReq(t, "svc", "sap1", "b0", "fw")); err != nil {
		t.Fatal(err)
	}
	v3, err := ro.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Fatal("a committed install must invalidate the memoized view")
	}
	if st := ro.PipelineStats(); st.ViewCache.Invalidations == 0 {
		t.Fatalf("view invalidation not counted: %+v", st.ViewCache)
	}
}

// TestLocalViewMemoization: the leaf orchestrator's exported view is memoized
// per substrate generation.
func TestLocalViewMemoization(t *testing.T) {
	lo := leafDomain(t, "mn", "sap1", "border", &recordingProgrammer{})
	ctx := context.Background()
	v1, err := lo.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := lo.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("steady-state leaf views must share one memoized graph")
	}
	if _, err := lo.Install(ctx, chainReq(t, "svc", "sap1", "border", "fw")); err != nil {
		t.Fatal(err)
	}
	v3, err := lo.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Fatal("a committed install must invalidate the leaf view")
	}
}

// cachedCut returns the cut cache's entry for a shard set (nil if none).
func cachedCut(ro *ResourceOrchestrator, keys []string) *cutEntry {
	ro.cuts.mu.Lock()
	defer ro.cuts.mu.Unlock()
	return ro.cuts.entries[strings.Join(keys, "\x00")]
}

// TestScopedCutCache: a narrowed (shard-subset) admission group plans on a
// cached merged cut of exactly its subset, in the same cache that serves the
// all-shard cut to DoV reads and global plans. A repeat of the same footprint
// re-merges nothing while none of the subset's shards committed; a commit on
// any member invalidates the subset's entry and the all-shard entry (counted
// under CutCache); the cache never holds more than cutCap entries.
func TestScopedCutCache(t *testing.T) {
	ro, _ := lineRO(t, 4, 0, nil)
	ctx := context.Background()
	// An unmappable request anchored at the d1 border SAPs: its shard set is
	// the proper subset {d0,d1,d2}, its plan always rejects (unsupported NF
	// type), so planning never commits — the scoped cut must be reused.
	bad := func(id string) *nffg.NFFG {
		return nffg.NewBuilder(id).SAP("b0").SAP("b1").
			NF(nffg.ID(id+"-nf"), "no-such-type", 2, res(2, 512)).
			Chain(id, 1, 0, "b0", nffg.ID(id+"-nf"), "b1").
			MustBuild()
	}
	subset := ro.ShardSet(bad("probe"))
	if len(subset) < 2 || len(subset) >= 4 {
		t.Fatalf("expected a proper multi-shard subset, got %v", subset)
	}
	all := []string{"d0", "d1", "d2", "d3"}
	if _, err := ro.Install(ctx, bad("s1")); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("expected rejection, got %v", err)
	}
	st1 := ro.PipelineStats()
	if _, err := ro.Install(ctx, bad("s2")); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("expected rejection, got %v", err)
	}
	st2 := ro.PipelineStats()
	if st2.CutCache.Misses != st1.CutCache.Misses {
		t.Fatalf("second plan re-merged a cut: misses %d -> %d", st1.CutCache.Misses, st2.CutCache.Misses)
	}
	// One hit for the scoped subset, one for the escalated full-DoV retry.
	if st2.CutCache.Hits < st1.CutCache.Hits+2 {
		t.Fatalf("expected scoped + full cut hits: %+v -> %+v", st1.CutCache, st2.CutCache)
	}
	// A DoV read is served by the all-shard entry the escalated plan cached.
	eSub, eAll := cachedCut(ro, subset), cachedCut(ro, all)
	if eSub == nil || eAll == nil {
		t.Fatalf("cache lacks the subset or the all-shard cut: %v %v", eSub, eAll)
	}
	if d := mustDoV(t, ro); d != eAll.graph {
		t.Fatal("DoV must return the cached all-shard cut")
	}
	if st := ro.PipelineStats(); st.CutCache.Hits != st2.CutCache.Hits+1 || st.CutCache.Misses != st2.CutCache.Misses {
		t.Fatalf("DoV read did not hit the shared cache: %+v -> %+v", st2.CutCache, st.CutCache)
	}

	// A commit that bumps a subset member's generation makes the cached
	// scoped cut stale: the next plan re-merges and counts an invalidation.
	if _, err := ro.Install(ctx, chainReq(t, "svc", "sap1", "b0", "fw")); err != nil {
		t.Fatal(err)
	}
	st3 := ro.PipelineStats()
	if _, err := ro.Install(ctx, bad("s3")); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("expected rejection, got %v", err)
	}
	st4 := ro.PipelineStats()
	if st4.CutCache.Misses == st3.CutCache.Misses {
		t.Fatal("a commit on a subset member must invalidate the scoped cut")
	}
	// Both the subset's and the all-shard entry were stale and replaced.
	if st4.CutCache.Invalidations < st3.CutCache.Invalidations+2 {
		t.Fatalf("subset + all-shard invalidations not counted: %+v -> %+v", st3.CutCache, st4.CutCache)
	}
	if cachedCut(ro, subset) == eSub || cachedCut(ro, all) == eAll {
		t.Fatal("a commit on a subset member must replace the subset and all-shard entries")
	}
	if err := ro.Remove(ctx, "svc"); err != nil {
		t.Fatal(err)
	}

	// However many shard sets are planned on, the cache stays bounded.
	for i := range cutCap + 8 {
		vec := genVec{keys: []string{fmt.Sprintf("x%d", i)}, gens: []uint64{1}}
		if _, err := ro.mergedCut(nil, vec); err != nil {
			t.Fatal(err)
		}
		ro.cuts.mu.Lock()
		n := len(ro.cuts.entries)
		ro.cuts.mu.Unlock()
		if n > cutCap {
			t.Fatalf("cut cache holds %d entries, cap %d", n, cutCap)
		}
	}
}

// TestMergeErrorPropagation: an unmergeable all-shard cut (colliding shard
// exports) surfaces as an error on View and DoV — not as a silently
// incomplete cut — and is counted in PipelineStats.MergeErrors.
func TestMergeErrorPropagation(t *testing.T) {
	ro, _ := lineRO(t, 2, 0, nil)
	if _, err := ro.DoV(); err != nil {
		t.Fatal(err)
	}
	// White-box fault injection: overwrite d1's shard graph with one that
	// re-exports d0's aggregate, which no merge order can reconcile. The
	// generation bump keeps the commit invariant and defeats the cut cache.
	evil := nffg.New("evil")
	if err := evil.AddInfra(&nffg.Infra{ID: "bisbis@d0", Type: "bisbis", Domain: "d1"}); err != nil {
		t.Fatal(err)
	}
	dir, _ := ro.snapshotDir()
	sh := dir.shards["d1"]
	sh.mu.Lock()
	sh.dov = evil.Seal()
	sh.gen++
	sh.commits++
	sh.mu.Unlock()

	if _, err := ro.DoV(); err == nil {
		t.Fatal("unmergeable cut must surface an error from DoV")
	}
	if _, err := ro.View(context.Background()); err == nil {
		t.Fatal("unmergeable cut must surface an error from View")
	}
	if st := ro.PipelineStats(); st.MergeErrors == 0 {
		t.Fatalf("merge errors not counted: %+v", st)
	}
}

// TestReadCacheRaceStorm is the -race harness for cache invalidation under
// concurrency: reader goroutines hammer View and DoV through the caches
// while writers churn single-shard and cross-shard install/remove cycles.
// Every writer verifies its own commits are immediately visible (never
// stale past a completed commit); readers verify every observed view is a
// consistent cut (cross-shard services appear atomically, graphs validate).
func TestReadCacheRaceStorm(t *testing.T) {
	const (
		domains = 3
		rounds  = 12
		readers = 4
	)
	// Transparent top-level view: the observed views carry the DoV's NFs, so
	// readers can check commit atomicity on the view content itself.
	ro, _ := meshROCfg(t, domains, 2, Config{ID: "ro", Virtualizer: Transparent{}})
	ctx := context.Background()

	stop := make(chan struct{})
	readerErr := make(chan error, readers)
	var rwg sync.WaitGroup
	for g := 0; g < readers; g++ {
		rwg.Add(1)
		go func(g int) {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var graph *nffg.NFFG
				var err error
				if g%2 == 0 {
					graph, err = ro.View(ctx)
					if errors.Is(err, ErrEmptyView) {
						continue
					}
				} else {
					graph, err = ro.DoV()
				}
				if err != nil {
					readerErr <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
				if !graph.Sealed() {
					readerErr <- fmt.Errorf("reader %d: observed an unsealed shared graph", g)
					return
				}
				// Atomicity of cross-shard commits: a crossChain's two NFs
				// commit via the ordered two-phase path and must never be
				// observed half-applied in any cut.
				for id := range graph.NFs.All() {
					s := string(id)
					if !strings.HasSuffix(s, "-nfa") {
						continue
					}
					peer := nffg.ID(strings.TrimSuffix(s, "-nfa") + "-nfb")
					if _, ok := graph.NFs.Lookup(peer); !ok {
						readerErr <- fmt.Errorf("reader %d: torn view: %s without %s", g, id, peer)
						return
					}
				}
				if err := graph.Validate(); err != nil {
					readerErr <- fmt.Errorf("reader %d: invalid cut: %w", g, err)
					return
				}
			}
		}(g)
	}

	// sees reports whether the current view holds the NF (views are read
	// through the cache — a stale hit would fail the visibility assertions).
	sees := func(nf nffg.ID) bool {
		v, err := ro.View(ctx)
		if err != nil {
			t.Errorf("view during storm: %v", err)
			return false
		}
		_, ok := v.NFs.Lookup(nf)
		return ok
	}

	var wwg sync.WaitGroup
	writerErrs := make([]error, domains)
	for w := 0; w < domains; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for r := 0; r < rounds; r++ {
				id := fmt.Sprintf("st-w%d-r%d", w, r)
				var req *nffg.NFFG
				probe := nffg.ID(id + "-nf")
				if w < domains-1 && r%2 == 1 {
					// Slot 1 keeps the cross-chain's SAPs disjoint from every
					// neighbor's slot-0 chain (no flowrule conflicts).
					req = crossChain(t, id, w, 1)
					probe = nffg.ID(id + "-nfa")
				} else {
					req = slotChain(t, id, w, 0)
				}
				_, err := ro.Install(ctx, req)
				if errors.Is(err, unify.ErrBusy) {
					r--
					continue
				}
				if err != nil {
					writerErrs[w] = fmt.Errorf("round %d install: %w", r, err)
					return
				}
				if !sees(probe) {
					writerErrs[w] = fmt.Errorf("round %d: view stale after completed install of %s", r, id)
					return
				}
				if err := ro.Remove(ctx, id); err != nil {
					writerErrs[w] = fmt.Errorf("round %d remove: %w", r, err)
					return
				}
				if sees(probe) {
					writerErrs[w] = fmt.Errorf("round %d: view stale after completed remove of %s", r, id)
					return
				}
			}
		}(w)
	}
	wwg.Wait()
	close(stop)
	rwg.Wait()
	close(readerErr)
	for err := range readerErr {
		t.Fatal(err)
	}
	for w, err := range writerErrs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}

	// Drained: the final cut is clean, and the storm actually exercised the
	// caches in both directions.
	final := mustDoV(t, ro)
	if final.NFs.Len() != 0 {
		t.Fatalf("NFs leaked into the final cut: %v", final.NFIDs())
	}
	st := ro.PipelineStats()
	if st.CutCache.Hits == 0 || st.CutCache.Invalidations == 0 {
		t.Fatalf("storm did not exercise the cut cache: %+v", st.CutCache)
	}
	if st.ViewCache.Hits == 0 || st.ViewCache.Invalidations == 0 {
		t.Fatalf("storm did not exercise the view cache: %+v", st.ViewCache)
	}
	assertShardInvariants(t, ro)
}

// TestConcurrentAttachIndexCompleteness: concurrent Attaches into ONE shard
// (SingleShard) must never lose a child's reverse-index contribution — a late
// writer recomputes from the shard's current graph and is generation-guarded,
// so every child's SAPs resolve in ShardSet afterwards.
func TestConcurrentAttachIndexCompleteness(t *testing.T) {
	const domains = 6
	for round := 0; round < 5; round++ {
		ro := NewResourceOrchestrator(Config{ID: "ro", ShardKey: SingleShard})
		var wg sync.WaitGroup
		errs := make([]error, domains)
		for i := 0; i < domains; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				name := fmt.Sprintf("d%d", i)
				sub := nffg.NewBuilder(name).
					BiSBiS(nffg.ID(name+"-n"), name, 4, res(8, 4096), "fw").
					SAP(nffg.ID(name+"-in")).SAP(nffg.ID(name+"-out")).
					Link("i", nffg.ID(name+"-in"), "1", nffg.ID(name+"-n"), "1", 100, 1).
					Link("o", nffg.ID(name+"-n"), "2", nffg.ID(name+"-out"), "1", 100, 1).
					MustBuild()
				lo, err := NewLocalOrchestrator(LocalConfig{ID: name, Substrate: sub})
				if err != nil {
					errs[i] = err
					return
				}
				errs[i] = ro.Attach(context.Background(), lo)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("attach %d: %v", i, err)
			}
		}
		for i := 0; i < domains; i++ {
			req := chainReq(t, fmt.Sprintf("probe%d", i),
				nffg.ID(fmt.Sprintf("d%d-in", i)), nffg.ID(fmt.Sprintf("d%d-out", i)), "fw")
			req.NFs.Get(nffg.ID(fmt.Sprintf("probe%d-nf", i))).Host = nffg.ID(fmt.Sprintf("bisbis@d%d", i))
			if got := ro.ShardSet(req); len(got) != 1 || got[0] != "dov" {
				t.Fatalf("round %d: d%d's contribution lost from the index: ShardSet=%v", round, i, got)
			}
		}
	}
}
