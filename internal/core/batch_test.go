package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// domReq builds a 1-NF chain pinned entirely inside domain i of an n-domain
// line (independent per-domain requests for batch tests).
func domReq(t testing.TB, id string, i, n int) *nffg.NFFG {
	t.Helper()
	left := "sap1"
	if i > 0 {
		left = fmt.Sprintf("b%d", i-1)
	}
	right := "sap2"
	if i < n-1 {
		right = fmt.Sprintf("b%d", i)
	}
	nf := nffg.ID(id + "-nf")
	g := nffg.NewBuilder(id).
		SAP(nffg.ID(left)).SAP(nffg.ID(right)).
		NF(nf, "fw", 2, res(2, 512)).
		Chain(id, 1, 0, nffg.ID(left), nf, nffg.ID(right)).
		MustBuild()
	g.NFs.Get(nf).Host = nffg.ID(fmt.Sprintf("bisbis@d%d", i))
	return g
}

// TestInstallBatchSingleCommit verifies the batch tentpole: K coalesced
// requests are admitted with exactly one DoV generation bump and every one of
// them deploys.
func TestInstallBatchSingleCommit(t *testing.T) {
	const domains = 4
	ro, _ := lineRO(t, domains, 0, nil)
	genBefore := ro.Generation()

	reqs := make([]*nffg.NFFG, domains)
	for i := range reqs {
		reqs[i] = domReq(t, fmt.Sprintf("svc%d", i), i, domains)
	}
	var mu sync.Mutex
	var admitted []int
	out := ro.InstallBatch(context.Background(), reqs, unify.BatchObserver{Admitted: func(i int) {
		mu.Lock()
		admitted = append(admitted, i)
		mu.Unlock()
	}})
	if len(out) != domains {
		t.Fatalf("outcomes: %d", len(out))
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("request %d failed: %v", i, o.Err)
		}
		if o.Receipt == nil || o.Receipt.ServiceID != reqs[i].ID {
			t.Fatalf("request %d receipt: %+v", i, o.Receipt)
		}
		if o.Attempts != 1 {
			t.Fatalf("request %d attempts: %d", i, o.Attempts)
		}
	}
	if len(admitted) != domains {
		t.Fatalf("admitted callbacks: %v", admitted)
	}
	if gen := ro.Generation(); gen != genBefore+1 {
		t.Fatalf("generation moved %d times, want 1", gen-genBefore)
	}
	if got := len(ro.Services()); got != domains {
		t.Fatalf("services: %d", got)
	}
	st := ro.PipelineStats()
	if st.Batches != 1 || st.BatchedRequests != domains || st.Installs != domains {
		t.Fatalf("stats: %+v", st)
	}
	if st.GenConflicts != 0 {
		t.Fatalf("unexpected conflicts: %+v", st)
	}
}

// TestInstallBatchPartialRejection: one unmappable graph in the batch is
// rejected alone; its peers deploy.
func TestInstallBatchPartialRejection(t *testing.T) {
	const domains = 3
	ro, _ := lineRO(t, domains, 0, nil)
	bad := nffg.NewBuilder("bad").
		SAP("sap1").SAP("sap2").
		NF("bad-nf", "quantum", 2, res(1, 64)).
		Chain("bad", 1, 0, "sap1", "bad-nf", "sap2").
		MustBuild()
	reqs := []*nffg.NFFG{
		domReq(t, "ok1", 0, domains),
		bad,
		domReq(t, "ok2", 2, domains),
	}
	out := ro.InstallBatch(context.Background(), reqs, unify.BatchObserver{})
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("good requests failed: %v / %v", out[0].Err, out[2].Err)
	}
	if !errors.Is(out[1].Err, unify.ErrRejected) {
		t.Fatalf("bad request: %v", out[1].Err)
	}
	if got := ro.Services(); len(got) != 2 {
		t.Fatalf("services: %v", got)
	}
}

// TestInstallBatchDuplicateIDs: duplicates within one batch reject
// individually (first wins).
func TestInstallBatchDuplicateIDs(t *testing.T) {
	const domains = 2
	ro, _ := lineRO(t, domains, 0, nil)
	reqs := []*nffg.NFFG{
		domReq(t, "dup", 0, domains),
		domReq(t, "dup", 1, domains),
	}
	out := ro.InstallBatch(context.Background(), reqs, unify.BatchObserver{})
	if out[0].Err != nil {
		t.Fatalf("first dup: %v", out[0].Err)
	}
	if !errors.Is(out[1].Err, unify.ErrRejected) {
		t.Fatalf("second dup: %v", out[1].Err)
	}
}

// TestInstallBatchDeployFailureIsolation: a request whose device programming
// fails releases only its own DoV reservation; batch peers stay deployed and
// the failed request's resources are reusable.
func TestInstallBatchDeployFailureIsolation(t *testing.T) {
	const domains = 2
	ro, _ := lineRO(t, domains, 0, map[int]Programmer{
		1: &slowProgrammer{failPfx: "bad"},
	})
	reqs := []*nffg.NFFG{
		domReq(t, "good", 0, domains),
		domReq(t, "bad", 1, domains),
	}
	out := ro.InstallBatch(context.Background(), reqs, unify.BatchObserver{})
	if out[0].Err != nil {
		t.Fatalf("good request failed: %v", out[0].Err)
	}
	if out[1].Err == nil {
		t.Fatal("bad request should fail at deploy")
	}
	if got := ro.Services(); len(got) != 1 || got[0] != "good" {
		t.Fatalf("services: %v", got)
	}
	// The failed request's reservation was released: domain 1's slot admits a
	// fresh install whose NF ID does not trip the failing prefix.
	out2 := ro.InstallBatch(context.Background(), []*nffg.NFFG{domReq(t, "retry", 1, domains)}, unify.BatchObserver{})
	if out2[0].Err != nil {
		t.Fatalf("released capacity not reusable: %v", out2[0].Err)
	}
}

// TestInstallBatchCanceled: a canceled context fails the whole batch with the
// context error and leaves no reservations behind.
func TestInstallBatchCanceled(t *testing.T) {
	const domains = 2
	ro, _ := lineRO(t, domains, 0, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := ro.InstallBatch(ctx, []*nffg.NFFG{domReq(t, "c1", 0, domains)}, unify.BatchObserver{})
	if !errors.Is(out[0].Err, context.Canceled) {
		t.Fatalf("want context error, got %v", out[0].Err)
	}
	if got := ro.Services(); len(got) != 0 {
		t.Fatalf("leftover services: %v", got)
	}
}

// TestInstallBatchAmortizesConflicts: with C concurrent single-request
// installs every commit invalidates the others' snapshots (conflicts pile
// up); the same C requests as one batch commit once with zero conflicts.
func TestInstallBatchAmortizesConflicts(t *testing.T) {
	const domains = 4
	ro, _ := lineRO(t, domains, time.Millisecond, nil)
	reqs := make([]*nffg.NFFG, domains)
	for i := range reqs {
		reqs[i] = domReq(t, fmt.Sprintf("b%d-svc", i), i, domains)
	}
	before := ro.PipelineStats()
	out := ro.InstallBatch(context.Background(), reqs, unify.BatchObserver{})
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("request %d: %v", i, o.Err)
		}
	}
	st := ro.PipelineStats()
	if got := st.MapAttempts - before.MapAttempts; got != 1 {
		t.Fatalf("batch should map once, mapped %d times", got)
	}
	if st.GenConflicts != before.GenConflicts {
		t.Fatalf("batch should not conflict: %+v", st)
	}
}

// errAfter is a context whose Err reports nil for its first n calls and
// context.Canceled afterwards; it never closes a Done channel. It cancels a
// batch at a chosen check without a race against a goroutine.
type errAfter struct {
	context.Context
	mu sync.Mutex
	n  int
}

func (c *errAfter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n > 0 {
		c.n--
		return nil
	}
	return context.Canceled
}

// TestRunGroupExits pins every deterministic way a shard group ends: per
// request the error kind and Attempts, and per batch the PipelineStats
// counters the group moves. Races are pinned by TestGenerationConflictRetry
// and TestOneShardChurnNeverBusy.
func TestRunGroupExits(t *testing.T) {
	// counts are the PipelineStats deltas of one batch.
	type counts struct {
		mapAttempts, escalations, batches, batchedReqs, multiShard uint64
	}
	cases := []struct {
		name     string
		run      func(t *testing.T) (*ResourceOrchestrator, context.Context, []*nffg.NFFG)
		err      []error // per request: nil, or the error it must wrap
		attempts []int
		counts   counts
	}{{
		name: "accepted first attempt",
		run: func(t *testing.T) (*ResourceOrchestrator, context.Context, []*nffg.NFFG) {
			ro, _ := lineRO(t, 4, 0, nil)
			return ro, context.Background(), []*nffg.NFFG{domReq(t, "a", 1, 4)}
		},
		err: []error{nil}, attempts: []int{1},
		counts: counts{mapAttempts: 1, batches: 1, batchedReqs: 1},
	}, {
		name: "escalated then accepted",
		run: func(t *testing.T) (*ResourceOrchestrator, context.Context, []*nffg.NFFG) {
			// The estimate {d0,d1} misses d3, the one domain that supports
			// the NF's type.
			ro, _ := borderNet{n: 4, extra: map[int]string{3: "ids"}}.build(t)
			return ro, context.Background(), []*nffg.NFFG{chainReq(t, "esc", "u0", "u1", "ids")}
		},
		err: []error{nil}, attempts: []int{2},
		counts: counts{mapAttempts: 2, escalations: 1, batches: 1, batchedReqs: 1, multiShard: 1},
	}, {
		name: "rejected on the global group",
		run: func(t *testing.T) (*ResourceOrchestrator, context.Context, []*nffg.NFFG) {
			// An unknown SAP cannot be narrowed: the group is global.
			ro, _ := lineRO(t, 4, 0, nil)
			return ro, context.Background(), []*nffg.NFFG{chainReq(t, "lost", "nowhere", "sap2", "fw")}
		},
		err: []error{unify.ErrRejected}, attempts: []int{1},
		counts: counts{mapAttempts: 1},
	}, {
		name: "escalated then rejected",
		run: func(t *testing.T) (*ResourceOrchestrator, context.Context, []*nffg.NFFG) {
			// No node of the line has the CPU: the narrowed plan fails, and
			// so does the global one.
			ro, _ := lineRO(t, 4, 0, nil)
			req := domReq(t, "big", 1, 4)
			req.NFs.Get("big-nf").Demand.CPU = 1000
			return ro, context.Background(), []*nffg.NFFG{req}
		},
		err: []error{unify.ErrRejected}, attempts: []int{2},
		counts: counts{mapAttempts: 2, escalations: 1},
	}, {
		name: "accepted beside rejected",
		run: func(t *testing.T) (*ResourceOrchestrator, context.Context, []*nffg.NFFG) {
			// The unknown SAP folds the batch into one global group; the
			// duplicate ID is refused at intake and never planned.
			ro, _ := lineRO(t, 4, 0, nil)
			return ro, context.Background(), []*nffg.NFFG{
				domReq(t, "ok", 1, 4),
				chainReq(t, "lost", "nowhere", "sap2", "fw"),
				domReq(t, "ok", 2, 4),
			}
		},
		err: []error{nil, unify.ErrRejected, unify.ErrRejected}, attempts: []int{1, 1, 0},
		counts: counts{mapAttempts: 1, batches: 1, batchedReqs: 1},
	}, {
		name: "canceled before intake",
		run: func(t *testing.T) (*ResourceOrchestrator, context.Context, []*nffg.NFFG) {
			ro, _ := lineRO(t, 4, 0, nil)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ro, ctx, []*nffg.NFFG{domReq(t, "c", 1, 4)}
		},
		err: []error{context.Canceled}, attempts: []int{0},
	}, {
		name: "canceled before planning",
		run: func(t *testing.T) (*ResourceOrchestrator, context.Context, []*nffg.NFFG) {
			// Intake reads the context once; the group's first check sees it
			// canceled.
			ro, _ := lineRO(t, 4, 0, nil)
			return ro, &errAfter{Context: context.Background(), n: 1}, []*nffg.NFFG{domReq(t, "c", 1, 4)}
		},
		err: []error{context.Canceled}, attempts: []int{1},
	}, {
		name: "terminal shard refuses its delta",
		run: func(t *testing.T) (*ResourceOrchestrator, context.Context, []*nffg.NFFG) {
			lo := leafDomain(t, "mn", "sap1", "border", newDeviceModel(t, "bad"))
			return lo.ro, context.Background(), []*nffg.NFFG{chainReq(t, "bad", "sap1", "border", "fw")}
		},
		err: []error{unify.ErrRejected}, attempts: []int{1},
		counts: counts{mapAttempts: 1},
	}, {
		name: "child refuses after the commit",
		run: func(t *testing.T) (*ResourceOrchestrator, context.Context, []*nffg.NFFG) {
			ro, _ := lineRO(t, 4, 0, map[int]Programmer{1: &slowProgrammer{failPfx: "bad"}})
			return ro, context.Background(), []*nffg.NFFG{domReq(t, "bad", 1, 4)}
		},
		err: []error{unify.ErrRejected}, attempts: []int{1},
		counts: counts{mapAttempts: 1, batches: 1, batchedReqs: 1},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ro, ctx, reqs := tc.run(t)
			before := ro.PipelineStats()
			out := ro.InstallBatch(ctx, reqs, unify.BatchObserver{})
			for i, o := range out {
				if w := tc.err[i]; (w == nil) != (o.Err == nil) || (w != nil && !errors.Is(o.Err, w)) {
					t.Errorf("request %d: error %v, want %v", i, o.Err, w)
				}
				if o.Attempts != tc.attempts[i] {
					t.Errorf("request %d: %d attempts, want %d", i, o.Attempts, tc.attempts[i])
				}
			}
			st := ro.PipelineStats()
			got := counts{
				mapAttempts: st.MapAttempts - before.MapAttempts,
				escalations: st.Escalations - before.Escalations,
				batches:     st.Batches - before.Batches,
				batchedReqs: st.BatchedRequests - before.BatchedRequests,
				multiShard:  st.MultiShardCommits - before.MultiShardCommits,
			}
			if got != tc.counts {
				t.Errorf("stats deltas %+v, want %+v", got, tc.counts)
			}
			// Every refused request let go of its reservations.
			if ok := len(out) - countErrs(out); len(ro.Services()) != ok {
				t.Errorf("services %v after %d admitted", ro.Services(), ok)
			}
		})
	}
}

func countErrs(out []unify.BatchOutcome) int {
	n := 0
	for _, o := range out {
		if o.Err != nil {
			n++
		}
	}
	return n
}
