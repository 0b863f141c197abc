package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/journal"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// TestShardSetEstimation pins the shard-set estimator: single-domain chains
// narrow to one shard, border SAPs widen to their neighbors, unpinned NFs
// narrow to their SAP anchors and the border path between them, and unknown
// endpoints fall back to the global (nil) set.
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

	// Unpinned NF: the SAP anchors (sap1 in d0, sap2 in d3) and the transit
	// shards of the border path between them.
	req3 := chainReq(t, "est3", "sap1", "sap2", "fw")
	if got, want := ro.ShardSet(req3), []string{"d0", "d1", "d2", "d3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unpinned: %v, want %v", got, want)
	}

	// Unknown SAP: cannot be narrowed (the plan rejects it with a real error).
	req4 := chainReq(t, "est4", "nowhere", "b0", "fw")
	req4.NFs.Get("est4-nf").Host = "bisbis@d0"
	if got := ro.ShardSet(req4); got != nil {
		t.Fatalf("unknown SAP: %v, want nil", got)
	}
}

// TestUnpinnedNarrowedEscalation: an unpinned chain whose NF type only an
// off-path domain supports plans on the narrowed cut, fails there (no host),
// and must escalate to a full-DoV plan and deploy there.
func TestUnpinnedNarrowedEscalation(t *testing.T) {
	ro, los := borderNet{n: 4, extra: map[int]string{3: "ids"}}.build(t)
	req := chainReq(t, "unp", "u0", "u1", "ids")
	if set := ro.ShardSet(req); !reflect.DeepEqual(set, []string{"d0", "d1"}) {
		t.Fatalf("estimate should narrow to the SAP anchors: %v", set)
	}
	out := ro.InstallBatch(context.Background(), []*nffg.NFFG{req}, unify.BatchObserver{})
	if err := out[0].Err; err != nil {
		t.Fatalf("escalated unpinned install failed: %v", err)
	}
	if st := ro.PipelineStats(); st.Escalations == 0 || out[0].Attempts != 2 {
		t.Fatalf("install did not escalate: %d attempts, %+v", out[0].Attempts, st)
	}
	if len(los[3].Services()) != 1 {
		t.Fatal("the NF should run on d3, the one domain that supports it")
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

// TestScopedPlanEscalation: a request whose border path runs only through
// domains without the CPU fails its scoped plan and must be escalated to a
// full-DoV plan — and succeed — instead of being rejected.
func TestScopedPlanEscalation(t *testing.T) {
	ro, los := borderNet{n: 6, ring: true, cpu: map[int]float64{0: 1, 1: 1, 2: 1}}.build(t)
	// u0 lives in d0 and u2 in d2: the estimate is the short arc {d0,d1,d2},
	// but the NF fits only on the other arc.
	req := chainReq(t, "esc", "u0", "u2", "fw")
	set := ro.ShardSet(req)
	if !reflect.DeepEqual(set, []string{"d0", "d1", "d2"}) {
		t.Fatalf("estimate should be the short arc: %v", set)
	}
	out := ro.InstallBatch(context.Background(), []*nffg.NFFG{req}, unify.BatchObserver{})
	if err := out[0].Err; err != nil {
		t.Fatalf("escalated install failed: %v", err)
	}
	if st := ro.PipelineStats(); st.Escalations == 0 || out[0].Attempts != 2 {
		t.Fatalf("install did not escalate: %d attempts, %+v", out[0].Attempts, st)
	}
	// A domain the estimate missed received a sub-service: the commit
	// touched it.
	found := false
	for _, lo := range los {
		if len(lo.Services()) > 0 && !slices.Contains(set, lo.ID()) {
			found = true
		}
	}
	if !found {
		t.Fatal("no domain outside the estimate received a sub-service")
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

// transparentLeaf is a one-node leaf exporting its internal node ID (node)
// unaggregated, so two of them can be made to collide on it.
func transparentLeaf(t testing.TB, name string, node nffg.ID) *LocalOrchestrator {
	t.Helper()
	sub := nffg.NewBuilder(name).
		BiSBiS(node, name, 4, res(8, 4096), "fw").
		SAP(nffg.ID(name+"-sap")).
		Link("u", nffg.ID(name+"-sap"), "1", node, "1", 100, 1).
		MustBuild()
	lo, err := NewLocalOrchestrator(LocalConfig{ID: name, Substrate: sub, Virtualizer: Transparent{}})
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

// TestAttachInfraCollisionAcrossShards: infra IDs must stay globally unique
// even though every shard merges its own graph — the owner map is the
// cross-shard authority.
func TestAttachInfraCollisionAcrossShards(t *testing.T) {
	ro := NewResourceOrchestrator(Config{ID: "ro"})
	if err := ro.Attach(context.Background(), transparentLeaf(t, "a", "same-node")); err != nil {
		t.Fatal(err)
	}
	checkMembership(t, ro)
	if err := ro.Attach(context.Background(), transparentLeaf(t, "b", "same-node")); err == nil {
		t.Fatal("colliding infra IDs across shards must fail to attach")
	}
	checkMembership(t, ro)
	// The failed attach left no residue: the child is not registered.
	if got := ro.Children(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("children after failed attach: %v", got)
	}
}

// countingJournal counts the records an orchestrator appends.
type countingJournal struct{ n atomic.Int64 }

func (j *countingJournal) LogAttach(string, uint64, uint64, string, string, *nffg.NFFG) error {
	j.n.Add(1)
	return nil
}

func (j *countingJournal) LogCommit(string, uint64, uint64, []journal.ServiceCommit) error {
	j.n.Add(1)
	return nil
}

func (j *countingJournal) LogRelease(string, uint64, uint64, []string) error {
	j.n.Add(1)
	return nil
}

func (j *countingJournal) LogDeployed(string, uint64, journal.DeployedRecord) error {
	j.n.Add(1)
	return nil
}

func (j *countingJournal) LogDetach(string, uint64, uint64, string, []string) error {
	j.n.Add(1)
	return nil
}

// TestAttachFailureChangesNothing: an Attach refused after its view was
// fetched — by the shard's Merge, or by the cross-shard infra collision
// check — leaves the directory, the child list, the shards, the epoch and
// the journal exactly as they were, and the same child ID attaches cleanly
// afterwards.
func TestAttachFailureChangesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shard ShardKeyFunc
	}{
		{"merge-refused", SingleShard}, // "same-node" twice in one graph
		{"infra-collision", ShardPerDomain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jr := &countingJournal{}
			ro := NewResourceOrchestrator(Config{ID: "ro", ShardKey: tc.shard, Journal: jr})
			if err := ro.Attach(context.Background(), transparentLeaf(t, "a", "same-node")); err != nil {
				t.Fatal(err)
			}
			dir, children, stats := ro.dir.Load(), ro.Children(), ro.ShardStats()
			gen, recs := ro.Generation(), jr.n.Load()

			if err := ro.Attach(context.Background(), transparentLeaf(t, "b", "same-node")); err == nil {
				t.Fatal("colliding view attached")
			}
			if ro.dir.Load() != dir {
				t.Error("failed attach swapped the directory")
			}
			if got := ro.Children(); !reflect.DeepEqual(got, children) {
				t.Errorf("children %v, want %v", got, children)
			}
			if got := ro.ShardStats(); !reflect.DeepEqual(got, stats) {
				t.Errorf("shard stats %+v, want %+v", got, stats)
			}
			if ro.Generation() != gen || jr.n.Load() != recs {
				t.Errorf("generation %d, records %d; want %d, %d", ro.Generation(), jr.n.Load(), gen, recs)
			}
			checkMembership(t, ro)

			if err := ro.Attach(context.Background(), transparentLeaf(t, "b", "other-node")); err != nil {
				t.Fatalf("clean attach after a failed one: %v", err)
			}
			checkMembership(t, ro)
			if got := ro.Children(); !reflect.DeepEqual(got, []string{"a", "b"}) {
				t.Fatalf("children %v", got)
			}
		})
	}
}

// blockingDomain holds its View until release closes, announcing the call
// on entered.
type blockingDomain struct {
	*LocalOrchestrator
	entered, release chan struct{}
}

func (b *blockingDomain) View(ctx context.Context) (*nffg.NFFG, error) {
	close(b.entered)
	<-b.release
	return b.LocalOrchestrator.View(ctx)
}

// TestAttachListsChildOnlyOnceInDoV: while an Attach waits for the child's
// view, neither Children nor ShardOf lists the child; once it returns, both
// do.
func TestAttachListsChildOnlyOnceInDoV(t *testing.T) {
	ro := NewResourceOrchestrator(Config{ID: "ro"})
	if err := ro.Attach(context.Background(), transparentLeaf(t, "a", "node-a")); err != nil {
		t.Fatal(err)
	}
	b := &blockingDomain{transparentLeaf(t, "b", "node-b"), make(chan struct{}), make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- ro.Attach(context.Background(), b) }()
	<-b.entered
	if got := ro.Children(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("children during the view fetch: %v", got)
	}
	if key, ok := ro.ShardOf("b"); ok {
		t.Errorf("ShardOf during the view fetch: %s", key)
	}
	close(b.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := ro.Children(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("children after attach: %v", got)
	}
	if key, ok := ro.ShardOf("b"); !ok || key != "b" {
		t.Errorf("ShardOf after attach: %q, %v", key, ok)
	}
	checkMembership(t, ro)
}

// TestDuplicateAttachRefused: a second Attach or Reattach of a live child
// returns domain.ErrDuplicate, whether the child attached fresh or was
// restored and reattached.
func TestDuplicateAttachRefused(t *testing.T) {
	ctx := context.Background()
	ro := NewResourceOrchestrator(Config{ID: "ro"})
	if err := ro.Attach(ctx, transparentLeaf(t, "a", "node-a")); err != nil {
		t.Fatal(err)
	}
	if err := ro.Attach(ctx, transparentLeaf(t, "a", "node-a2")); !errors.Is(err, domain.ErrDuplicate) {
		t.Fatalf("duplicate attach: %v", err)
	}
	if err := ro.Reattach(ctx, transparentLeaf(t, "a", "node-a")); !errors.Is(err, domain.ErrDuplicate) {
		t.Fatalf("reattach of a live child: %v", err)
	}

	dir := t.TempDir()
	_, _, leaves := journaledMesh(t, dir, 2, 1)
	ro2, _, _ := crashRecover(t, dir)
	if got := ro2.Children(); len(got) != 0 {
		t.Fatalf("restored children listed before Reattach: %v", got)
	}
	if err := ro2.Reattach(ctx, leaves[0]); err != nil {
		t.Fatal(err)
	}
	checkMembership(t, ro2)
	if got := ro2.Children(); !reflect.DeepEqual(got, []string{"d0"}) {
		t.Fatalf("children after Reattach: %v", got)
	}
	if err := ro2.Reattach(ctx, leaves[0]); !errors.Is(err, domain.ErrDuplicate) {
		t.Fatalf("second reattach: %v", err)
	}
	if err := ro2.Attach(ctx, leaves[1]); !errors.Is(err, domain.ErrDuplicate) {
		t.Fatalf("attach of a restored child: %v", err)
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
