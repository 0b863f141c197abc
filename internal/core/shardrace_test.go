package core

// Conflict-injection harness for the sharded DoV (run with -race): N worker
// goroutines churn install/remove cycles over disjoint and overlapping shard
// sets while a verifier continuously merges the DoV. The invariants:
//
//   - disjoint installs never observe a generation conflict, on any shard;
//   - overlapping (multi-shard) installs are never observed torn — every
//     consistent cut of the DoV validates, and when the churn drains the DoV
//     is restored resource-for-resource;
//   - every shard's generation equals its commit count after every round
//     (each generation bump is a counted commit, conflicts bump neither).

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// meshRO builds n leaf domains in a line (border SAPs x0..x{n-2}) where every
// domain additionally exports `slots` dedicated user-SAP pairs, so each
// worker can run chains that touch no other worker's SAPs: per-domain slot
// SAPs give disjoint shard sets, border-crossing chains give overlapping
// ones.
func meshRO(t testing.TB, n, slots int) (*ResourceOrchestrator, []string) {
	t.Helper()
	return meshROCfg(t, n, slots, Config{ID: "ro"})
}

// meshROCfg is meshRO with an explicit orchestrator Config.
func meshROCfg(t testing.TB, n, slots int, cfg Config) (*ResourceOrchestrator, []string) {
	t.Helper()
	ro := NewResourceOrchestrator(cfg)
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("d%d", i)
		keys[i] = name
		node := nffg.ID(name + "-n")
		bl := nffg.NewBuilder(name).
			BiSBiS(node, name, 2+2*slots, res(1<<16, 1<<24), "fw", "dpi", "nat")
		port := 1
		if i > 0 {
			left := nffg.ID(fmt.Sprintf("x%d", i-1))
			bl.SAP(left).Link("bl", left, "1", node, fmt.Sprint(port), 1e6, 1)
			port++
		}
		if i < n-1 {
			right := nffg.ID(fmt.Sprintf("x%d", i))
			bl.SAP(right).Link("br", node, fmt.Sprint(port), right, "1", 1e6, 1)
			port++
		}
		for j := 0; j < slots; j++ {
			in := nffg.ID(fmt.Sprintf("d%d-u%din", i, j))
			out := nffg.ID(fmt.Sprintf("d%d-u%dout", i, j))
			bl.SAP(in).Link(fmt.Sprintf("ui%d", j), in, "1", node, fmt.Sprint(port), 1e6, 1)
			port++
			bl.SAP(out).Link(fmt.Sprintf("uo%d", j), node, fmt.Sprint(port), out, "1", 1e6, 1)
			port++
		}
		lo, err := NewLocalOrchestrator(LocalConfig{ID: name, Substrate: bl.MustBuild()})
		if err != nil {
			t.Fatal(err)
		}
		if err := ro.Attach(context.Background(), lo); err != nil {
			t.Fatal(err)
		}
	}
	return ro, keys
}

// slotChain builds a 1-NF chain between domain i's slot-j user SAPs, pinned
// into domain i — a request whose shard set is exactly {d<i>}.
func slotChain(t testing.TB, id string, i, j int) *nffg.NFFG {
	t.Helper()
	in := nffg.ID(fmt.Sprintf("d%d-u%din", i, j))
	out := nffg.ID(fmt.Sprintf("d%d-u%dout", i, j))
	nf := nffg.ID(id + "-nf")
	g := nffg.NewBuilder(id).
		SAP(in).SAP(out).
		NF(nf, "fw", 2, res(2, 64)).
		Chain(id, 1, 0, in, nf, out).
		MustBuild()
	g.NFs.Get(nf).Host = nffg.ID(fmt.Sprintf("bisbis@d%d", i))
	return g
}

// crossChain builds a 2-NF chain from domain i's slot-j ingress SAP to domain
// i+1's slot-j egress SAP, one NF pinned in each — a request whose shard set
// spans {d<i>, d<i+1>} and whose commit is a two-phase multi-shard commit.
func crossChain(t testing.TB, id string, i, j int) *nffg.NFFG {
	t.Helper()
	in := nffg.ID(fmt.Sprintf("d%d-u%din", i, j))
	out := nffg.ID(fmt.Sprintf("d%d-u%dout", i+1, j))
	nfA := nffg.ID(id + "-nfa")
	nfB := nffg.ID(id + "-nfb")
	g := nffg.NewBuilder(id).
		SAP(in).SAP(out).
		NF(nfA, "fw", 2, res(2, 64)).
		NF(nfB, "nat", 2, res(2, 64)).
		Chain(id, 1, 0, in, nfA, nfB, out).
		MustBuild()
	g.NFs.Get(nfA).Host = nffg.ID(fmt.Sprintf("bisbis@d%d", i))
	g.NFs.Get(nfB).Host = nffg.ID(fmt.Sprintf("bisbis@d%d", i+1))
	return g
}

// assertShardInvariants checks Gen == Commits on every shard (every
// generation bump is a counted commit; lost commits bump neither).
func assertShardInvariants(t testing.TB, ro *ResourceOrchestrator) {
	t.Helper()
	for _, st := range ro.ShardStats() {
		if st.Gen != st.Commits {
			t.Fatalf("shard %s: gen %d != commits %d", st.Shard, st.Gen, st.Commits)
		}
	}
}

// TestShardRaceDisjoint: one worker per domain, each churning install/remove
// cycles strictly inside its own shard. Disjoint shard sets must commit
// without a single generation conflict anywhere.
func TestShardRaceDisjoint(t *testing.T) {
	const (
		domains = 4
		rounds  = 25
	)
	ro, keys := meshRO(t, domains, 1)
	if got := len(ro.ShardStats()); got != domains {
		t.Fatalf("shards: %d, want %d", got, domains)
	}
	// Sanity: the slot chains really are single-shard requests.
	for i := 0; i < domains; i++ {
		set := ro.ShardSet(slotChain(t, fmt.Sprintf("probe%d", i), i, 0))
		if !reflect.DeepEqual(set, []string{keys[i]}) {
			t.Fatalf("worker %d shard set: %v, want [%s]", i, set, keys[i])
		}
	}
	before := ro.PipelineStats()
	var wg sync.WaitGroup
	errs := make([]error, domains)
	for w := 0; w < domains; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for r := 0; r < rounds; r++ {
				id := fmt.Sprintf("svc-d%d-r%d", w, r)
				if _, err := ro.Install(ctx, slotChain(t, id, w, 0)); err != nil {
					errs[w] = fmt.Errorf("round %d install: %w", r, err)
					return
				}
				if err := ro.Remove(ctx, id); err != nil {
					errs[w] = fmt.Errorf("round %d remove: %w", r, err)
					return
				}
				assertShardInvariants(t, ro)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	st := ro.PipelineStats()
	if got := st.GenConflicts - before.GenConflicts; got != 0 {
		t.Fatalf("disjoint workers observed %d generation conflicts", got)
	}
	if got := st.Busy - before.Busy; got != 0 {
		t.Fatalf("disjoint workers were crowded out %d times", got)
	}
	if got := st.Installs - before.Installs; got != domains*rounds {
		t.Fatalf("installs: %d, want %d", got, domains*rounds)
	}
	for _, sh := range ro.ShardStats() {
		if sh.Conflicts != 0 {
			t.Fatalf("shard %s saw %d conflicts on a disjoint workload", sh.Shard, sh.Conflicts)
		}
		// 1 attach + rounds × (install commit + release).
		if want := uint64(1 + 2*rounds); sh.Commits != want {
			t.Fatalf("shard %s commits: %d, want %d", sh.Shard, sh.Commits, want)
		}
	}
	assertShardInvariants(t, ro)
}

// TestShardRaceOverlapping: cross-shard chains on overlapping shard pairs
// churn concurrently with single-shard ones while a verifier continuously
// takes consistent DoV cuts. No cut may ever be torn (half a multi-shard
// commit), and draining the churn must restore the DoV exactly.
func TestShardRaceOverlapping(t *testing.T) {
	const (
		domains = 4
		rounds  = 15
	)
	ro, _ := meshRO(t, domains, 2)
	initial := mustDoV(t, ro)

	stop := make(chan struct{})
	verifierErr := make(chan error, 1)
	go func() {
		defer close(verifierErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			dov, err := ro.DoV()
			if err != nil {
				verifierErr <- fmt.Errorf("unmergeable DoV cut: %w", err)
				return
			}
			if err := dov.Validate(); err != nil {
				verifierErr <- fmt.Errorf("torn DoV cut: %w", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, domains)
	for w := 0; w < domains; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for r := 0; r < rounds; r++ {
				id := fmt.Sprintf("x-w%d-r%d", w, r)
				var req *nffg.NFFG
				if w < domains-1 {
					req = crossChain(t, id, w, 0) // spans d<w>, d<w+1>: overlaps neighbors
				} else {
					req = slotChain(t, id, w, 1) // single-shard churn in the last domain
				}
				_, err := ro.Install(ctx, req)
				if errors.Is(err, unify.ErrBusy) {
					r-- // crowded out by an overlapping neighbor: retry the round
					continue
				}
				if err != nil {
					errs[w] = fmt.Errorf("round %d install: %w", r, err)
					return
				}
				if err := ro.Remove(ctx, id); err != nil {
					errs[w] = fmt.Errorf("round %d remove: %w", r, err)
					return
				}
				assertShardInvariants(t, ro)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err, ok := <-verifierErr; ok && err != nil {
		t.Fatal(err)
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	st := ro.PipelineStats()
	if st.MultiShardCommits == 0 {
		t.Fatal("cross-shard chains never took the multi-shard commit path")
	}
	assertShardInvariants(t, ro)

	// Drained: the DoV must be restored resource-for-resource.
	final := mustDoV(t, ro)
	if final.NFs.Len() != 0 {
		t.Fatalf("NFs leaked into DoV: %v", final.NFIDs())
	}
	if final.NumHops() != 0 {
		t.Fatalf("hop records leaked: %d", final.NumHops())
	}
	for _, id := range initial.InfraIDs() {
		b, _ := initial.AvailableResources(id)
		a, err := final.AvailableResources(id)
		if err != nil || b != a {
			t.Fatalf("capacity drift on %s: %+v != %+v (%v)", id, b, a, err)
		}
		if n := len(slices.Collect(final.Infras.Get(id).Flowrules())); n != 0 {
			t.Fatalf("%d flowrules leaked on %s", n, id)
		}
	}
	for l := range initial.Links() {
		fl := final.LinkByID(l.ID)
		if fl == nil || fl.Bandwidth != l.Bandwidth {
			t.Fatalf("bandwidth drift on link %s", l.ID)
		}
	}
}

// TestShardRaceMixedContention mixes disjoint, overlapping and global
// (unpinned) requests — the worst interleaving for the ordered two-phase
// commit — and checks nothing deadlocks, nothing is lost, and the generation
// invariant holds throughout.
func TestShardRaceMixedContention(t *testing.T) {
	const (
		domains = 3
		rounds  = 10
	)
	ro, _ := meshRO(t, domains, 2)
	var wg sync.WaitGroup
	workers := domains + 1
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for r := 0; r < rounds; r++ {
				id := fmt.Sprintf("m-w%d-r%d", w, r)
				var req *nffg.NFFG
				switch {
				case w < domains:
					req = slotChain(t, id, w, 0)
				case r%2 == 0:
					// Unpinned, anchored in one domain: the reverse index
					// narrows it to that shard, where it contends with the
					// domain's pinned worker on the same lane.
					req = slotChain(t, id, r%domains, 1)
					req.NFs.Get(nffg.ID(id + "-nf")).Host = ""
				default:
					// Unpinned across the line: anchors {d0, d<last>} miss the
					// transit shards, so the scoped plan fails and escalates to
					// a full-DoV (all-shard) pass — the worst interleaving for
					// the ordered two-phase commit.
					in := nffg.ID("d0-u1in")
					out := nffg.ID(fmt.Sprintf("d%d-u1out", domains-1))
					nf := nffg.ID(id + "-nf")
					req = nffg.NewBuilder(id).
						SAP(in).SAP(out).
						NF(nf, "fw", 2, res(2, 64)).
						Chain(id, 1, 0, in, nf, out).
						MustBuild()
				}
				_, err := ro.Install(ctx, req)
				if errors.Is(err, unify.ErrBusy) {
					r--
					continue
				}
				if err != nil {
					errs[w] = fmt.Errorf("round %d install: %w", r, err)
					return
				}
				if err := ro.Remove(ctx, id); err != nil {
					errs[w] = fmt.Errorf("round %d remove: %w", r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	assertShardInvariants(t, ro)
	if got := len(ro.Services()); got != 0 {
		t.Fatalf("services leaked: %d", got)
	}
}
