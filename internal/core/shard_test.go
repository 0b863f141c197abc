package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// TestShardSetEstimation pins the shard-set estimator: single-domain chains
// narrow to one shard, border SAPs widen to their neighbors, unpinned NFs
// narrow to their SAP anchors via the reverse index, and unknown endpoints
// fall back to the global (nil) set.
func TestShardSetEstimation(t *testing.T) {
	ro, _ := lineRO(t, 4, 0, nil)

	// Pinned chain on d1's border SAPs: the SAPs stitch d0/d1 and d1/d2.
	req := chainReq(t, "est1", "b0", "b1", "fw")
	req.NFs.Get("est1-nf").Host = "bisbis@d1"
	if got, want := ro.ShardSet(req), []string{"d0", "d1", "d2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("border chain: %v, want %v", got, want)
	}

	// Outer SAP + pinned NF: narrows to the owning shards only.
	req2 := chainReq(t, "est2", "sap1", "b0", "fw")
	req2.NFs.Get("est2-nf").Host = "bisbis@d0"
	if got, want := ro.ShardSet(req2), []string{"d0", "d1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("outer chain: %v, want %v", got, want)
	}

	// Unpinned NF: the reverse index narrows it to the SAP anchors (sap1 in
	// d0, sap2 in d3); a plan that needs the transit shards escalates.
	req3 := chainReq(t, "est3", "sap1", "sap2", "fw")
	if got, want := ro.ShardSet(req3), []string{"d0", "d3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unpinned: %v, want %v", got, want)
	}

	// Unknown SAP: cannot be narrowed (the plan rejects it with a real error).
	req4 := chainReq(t, "est4", "nowhere", "b0", "fw")
	req4.NFs.Get("est4-nf").Host = "bisbis@d0"
	if got := ro.ShardSet(req4); got != nil {
		t.Fatalf("unknown SAP: %v, want nil", got)
	}
}

// TestUnpinnedNarrowedEscalation: an unpinned chain whose SAP anchors miss
// the transit shards plans on the narrowed cut, fails there (no path), and
// must escalate to a full-DoV plan and deploy.
func TestUnpinnedNarrowedEscalation(t *testing.T) {
	ro, _ := lineRO(t, 4, 0, nil)
	req := chainReq(t, "unp", "sap1", "sap2", "fw")
	if set := ro.ShardSet(req); len(set) != 2 {
		t.Fatalf("estimate should narrow to the SAP anchors: %v", set)
	}
	if _, err := ro.Install(context.Background(), req); err != nil {
		t.Fatalf("escalated unpinned install failed: %v", err)
	}
	if st := ro.PipelineStats(); st.Escalations == 0 {
		t.Fatalf("install did not escalate: %+v", st)
	}
	if err := ro.Remove(context.Background(), "unp"); err != nil {
		t.Fatal(err)
	}
}

// TestGroupByOverlap pins the union-find partitioning: disjoint sets stay
// separate groups, transitive overlap merges, a global (nil) set folds
// everything into one group.
func TestGroupByOverlap(t *testing.T) {
	sets := [][]string{
		0: {"a"},
		1: {"b"},
		2: {"a", "c"},
		3: {"d"},
	}
	groups := groupByOverlap([]int{0, 1, 2, 3}, sets)
	if len(groups) != 3 {
		t.Fatalf("groups: %+v", groups)
	}
	byFirst := map[int]shardGroup{}
	for _, g := range groups {
		byFirst[g.idx[0]] = g
	}
	if g := byFirst[0]; !reflect.DeepEqual(g.idx, []int{0, 2}) || !reflect.DeepEqual(g.keys, []string{"a", "c"}) {
		t.Fatalf("merged group: %+v", g)
	}
	if g := byFirst[1]; !reflect.DeepEqual(g.keys, []string{"b"}) {
		t.Fatalf("b group: %+v", g)
	}

	// One global request collapses the partition.
	sets = append(sets, nil)
	groups = groupByOverlap([]int{0, 1, 2, 3, 4}, sets)
	if len(groups) != 1 || groups[0].keys != nil || len(groups[0].idx) != 5 {
		t.Fatalf("global fold: %+v", groups)
	}
}

// TestSingleShardDegenerate: with ShardKey SingleShard the orchestrator runs
// exactly like the pre-sharding pipeline — one shard, one generation counter,
// no multi-shard commits.
func TestSingleShardDegenerate(t *testing.T) {
	const domains = 3
	var los []*LocalOrchestrator
	ro := NewResourceOrchestrator(Config{ID: "ro", ShardKey: SingleShard})
	for i := 0; i < domains; i++ {
		name := fmt.Sprintf("d%d", i)
		left := nffg.ID(fmt.Sprintf("b%d", i-1))
		if i == 0 {
			left = "sap1"
		}
		right := nffg.ID(fmt.Sprintf("b%d", i))
		if i == domains-1 {
			right = "sap2"
		}
		sub := nffg.NewBuilder(name).
			BiSBiS(nffg.ID(name+"-n"), name, 4, res(16, 8192), "fw").
			SAP(left).SAP(right).
			Link("l", left, "1", nffg.ID(name+"-n"), "1", 1000, 1).
			Link("r", nffg.ID(name+"-n"), "2", right, "1", 1000, 1).
			MustBuild()
		lo, err := NewLocalOrchestrator(LocalConfig{ID: name, Substrate: sub})
		if err != nil {
			t.Fatal(err)
		}
		if err := ro.Attach(context.Background(), lo); err != nil {
			t.Fatal(err)
		}
		los = append(los, lo)
	}
	_ = los
	if st := ro.ShardStats(); len(st) != 1 || st[0].Shard != "dov" || len(st[0].Domains) != domains {
		t.Fatalf("degenerate shards: %+v", st)
	}
	req := chainReq(t, "svc", "sap1", "sap2", "fw")
	if _, err := ro.Install(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if err := ro.Remove(context.Background(), "svc"); err != nil {
		t.Fatal(err)
	}
	st := ro.PipelineStats()
	if st.MultiShardCommits != 0 {
		t.Fatalf("single shard took a multi-shard commit: %+v", st)
	}
	for _, sh := range ro.ShardStats() {
		if sh.Gen != sh.Commits {
			t.Fatalf("gen invariant: %+v", sh)
		}
	}
}

// TestScopedPlanEscalation: a request whose estimated shard set misses a
// transit shard (the path must detour through it) fails its scoped plan and
// must be escalated to a full-DoV plan — and succeed — instead of being
// rejected.
func TestScopedPlanEscalation(t *testing.T) {
	ro, los := lineRO(t, 4, 0, nil)
	// sap1 lives in d0, the NF is pinned into d2: the estimate is {d0,d2,d3}
	// (b2 stitches d2/d3) but the path must transit d1.
	req := chainReq(t, "esc", "sap1", "b2", "fw")
	req.NFs.Get("esc-nf").Host = "bisbis@d2"
	if set := ro.ShardSet(req); len(set) == 0 || len(set) >= 4 {
		t.Fatalf("estimate should be narrow but non-empty: %v", set)
	}
	if _, err := ro.Install(context.Background(), req); err != nil {
		t.Fatalf("escalated install failed: %v", err)
	}
	if st := ro.PipelineStats(); st.Escalations == 0 {
		t.Fatalf("install did not escalate: %+v", st)
	}
	// The transit shard d1 carried flowrules even though the estimate missed
	// it: the commit touched it.
	found := false
	for _, lo := range los {
		if len(lo.Services()) > 0 && lo.ID() == "d1" {
			found = true
		}
	}
	if !found {
		t.Fatal("transit domain d1 received no sub-service")
	}
	if err := ro.Remove(context.Background(), "esc"); err != nil {
		t.Fatal(err)
	}
}

// TestCrossShardNFIDCollision: NF IDs stay globally unique even when two
// services land on disjoint shards — the reservation table rejects the
// second request exactly like the shared-graph ApplyTo used to.
func TestCrossShardNFIDCollision(t *testing.T) {
	ro, _ := lineRO(t, 2, 0, nil)
	mk := func(svc string, dom int) *nffg.NFFG {
		left := "sap1"
		if dom > 0 {
			left = "b0"
		}
		right := "b0"
		if dom > 0 {
			right = "sap2"
		}
		g := nffg.NewBuilder(svc).
			SAP(nffg.ID(left)).SAP(nffg.ID(right)).
			NF("shared-nf", "fw", 2, res(2, 512)).
			Chain(svc, 1, 0, nffg.ID(left), "shared-nf", nffg.ID(right)).
			MustBuild()
		g.NFs.Get("shared-nf").Host = nffg.ID(fmt.Sprintf("bisbis@d%d", dom))
		return g
	}
	if _, err := ro.Install(context.Background(), mk("svcA", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Install(context.Background(), mk("svcB", 1)); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("colliding NF id must reject: %v", err)
	}
	// Removing the owner frees the identifier.
	if err := ro.Remove(context.Background(), "svcA"); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Install(context.Background(), mk("svcB", 1)); err != nil {
		t.Fatalf("freed NF id must be reusable: %v", err)
	}
}

// TestAttachInfraCollisionAcrossShards: infra IDs must stay globally unique
// even though every shard merges its own graph — the owner map is the
// cross-shard authority.
func TestAttachInfraCollisionAcrossShards(t *testing.T) {
	ro := NewResourceOrchestrator(Config{ID: "ro"})
	mk := func(name string) *LocalOrchestrator {
		sub := nffg.NewBuilder(name).
			BiSBiS("same-node", name, 4, res(8, 4096), "fw").
			SAP(nffg.ID(name+"-sap")).
			Link("u", nffg.ID(name+"-sap"), "1", "same-node", "1", 100, 1).
			MustBuild()
		lo, err := NewLocalOrchestrator(LocalConfig{
			ID: name, Substrate: sub,
			// Transparent export keeps the colliding internal node ID visible.
			Virtualizer: Transparent{},
		})
		if err != nil {
			t.Fatal(err)
		}
		return lo
	}
	if err := ro.Attach(context.Background(), mk("a")); err != nil {
		t.Fatal(err)
	}
	if err := ro.Attach(context.Background(), mk("b")); err == nil {
		t.Fatal("colliding infra IDs across shards must fail to attach")
	}
	// The failed attach left no residue: the child is not registered.
	if got := ro.Children(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("children after failed attach: %v", got)
	}
}

// TestDisjointBatchPartition: an InstallBatch whose requests narrow to
// disjoint shards commits once per shard group (not once globally), and every
// request deploys.
func TestDisjointBatchPartition(t *testing.T) {
	const domains = 3
	ro, _ := meshRO(t, domains, 1)
	before := ro.PipelineStats()
	reqs := make([]*nffg.NFFG, domains)
	for i := range reqs {
		reqs[i] = slotChain(t, fmt.Sprintf("p%d", i), i, 0)
	}
	out := ro.InstallBatch(context.Background(), reqs, unify.BatchObserver{})
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("request %d: %v", i, o.Err)
		}
	}
	st := ro.PipelineStats()
	if got := st.Batches - before.Batches; got != domains {
		t.Fatalf("disjoint batch should commit %d groups, committed %d", domains, got)
	}
	if st.GenConflicts != before.GenConflicts {
		t.Fatalf("disjoint groups conflicted: %+v", st)
	}
	if st.MultiShardCommits != before.MultiShardCommits {
		t.Fatalf("disjoint groups took multi-shard commits: %+v", st)
	}
}
