package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// borderNet describes n leaf domains d0..d<n-1>, each one BiS-BiS d<i>-n
// with a user SAP u<i>, stitched by border SAPs b<i> (shared by d<i> and
// d<i+1>) into a line, or into a ring when ring is set.
type borderNet struct {
	n     int
	ring  bool
	extra map[int]string  // domain -> an NF type only it supports
	cpu   map[int]float64 // domain -> CPU, when not 16
	cfg   Config          // the orchestrator's; an empty ID becomes "ro"
}

// build attaches the domains, in index order, under one resource
// orchestrator and returns it with the leaves.
func (bn borderNet) build(t testing.TB) (*ResourceOrchestrator, []*LocalOrchestrator) {
	t.Helper()
	if bn.cfg.ID == "" {
		bn.cfg.ID = "ro"
	}
	ro := NewResourceOrchestrator(bn.cfg)
	los := make([]*LocalOrchestrator, bn.n)
	for i := range los {
		name := fmt.Sprintf("d%d", i)
		node := nffg.ID(name + "-n")
		types := []string{"fw", "dpi", "nat", "compress"}
		if x, ok := bn.extra[i]; ok {
			types = append(types, x)
		}
		cpu, ok := bn.cpu[i]
		if !ok {
			cpu = 16
		}
		user := nffg.ID(fmt.Sprintf("u%d", i))
		b := nffg.NewBuilder(name).
			BiSBiS(node, name, 3, res(cpu, 8192), types...).
			SAP(user).Link("u", user, "1", node, "1", 1000, 1)
		if bn.ring || i > 0 {
			left := nffg.ID(fmt.Sprintf("b%d", (i+bn.n-1)%bn.n))
			b.SAP(left).Link("l", left, "1", node, "2", 1000, 1)
		}
		if bn.ring || i < bn.n-1 {
			right := nffg.ID(fmt.Sprintf("b%d", i))
			b.SAP(right).Link("r", node, "3", right, "1", 1000, 1)
		}
		lo, err := NewLocalOrchestrator(LocalConfig{ID: name, Substrate: b.MustBuild()})
		if err != nil {
			t.Fatal(err)
		}
		if err := ro.Attach(context.Background(), lo); err != nil {
			t.Fatal(err)
		}
		los[i] = lo
	}
	return ro, los
}

// TestShardSetFollowsBorderGraph pins the domain-level routing of the shard
// estimate: an unpinned chain's set is its SAP anchors plus one shortest
// border-graph path between them, where only a SAP two shards both export
// makes them neighbours.
func TestShardSetFollowsBorderGraph(t *testing.T) {
	ctx := context.Background()
	estimate := func(t *testing.T, ro *ResourceOrchestrator, from, to nffg.ID, want ...string) {
		t.Helper()
		if got := ro.ShardSet(chainReq(t, "est", from, to, "fw")); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s -> %s: %v, want %v", from, to, got, want)
		}
	}

	t.Run("line", func(t *testing.T) {
		ro, _ := borderNet{n: 5}.build(t)
		estimate(t, ro, "u0", "u3", "d0", "d1", "d2", "d3")
		estimate(t, ro, "u4", "u2", "d2", "d3", "d4")
		estimate(t, ro, "u1", "b1", "d1", "d2") // b1 anchors both of its shards
		if got := ro.dir.Load().borders["d1"]; !reflect.DeepEqual(got, []string{"d0", "d2"}) {
			t.Fatalf("d1 borders %v, want [d0 d2]", got)
		}
	})

	t.Run("ring takes the shorter arc", func(t *testing.T) {
		ro, _ := borderNet{n: 6, ring: true}.build(t)
		estimate(t, ro, "u0", "u2", "d0", "d1", "d2")
		estimate(t, ro, "u0", "u4", "d0", "d4", "d5")
		// Both arcs are three hops: the search visits neighbours in key
		// order, so d1 reaches d4 through d0 and d5.
		estimate(t, ro, "u1", "u4", "d0", "d1", "d4", "d5")
	})

	t.Run("a view node in every shard borders nothing", func(t *testing.T) {
		ro, _ := borderNet{n: 4, cfg: Config{Virtualizer: SingleBiSBiS{}}}.build(t)
		dir := ro.dir.Load()
		if got := dir.index["bisbis0"]; len(got) != 4 {
			t.Fatalf("the view node should sit in every shard: %v", got)
		}
		if got := dir.borders["d0"]; !reflect.DeepEqual(got, []string{"d1"}) {
			t.Fatalf("d0 borders %v, want [d1]", got)
		}
		estimate(t, ro, "u0", "u3", "d0", "d1", "d2", "d3")
	})

	t.Run("ring after detaching the transit domain", func(t *testing.T) {
		ro, _ := borderNet{n: 6, ring: true}.build(t)
		if _, err := ro.Detach(ctx, "d1"); err != nil {
			t.Fatal(err)
		}
		estimate(t, ro, "u0", "u2", "d0", "d2", "d3", "d4", "d5")
		if _, err := ro.Install(ctx, chainReq(t, "arc", "u0", "u2", "fw")); err != nil {
			t.Fatal(err)
		}
		if st := ro.PipelineStats(); st.Escalations != 0 || st.MapAttempts != 1 {
			t.Fatalf("the long arc should plan once: %+v", st)
		}
	})

	t.Run("line after detaching the transit domain", func(t *testing.T) {
		ro, _ := borderNet{n: 4}.build(t)
		if _, err := ro.Detach(ctx, "d1"); err != nil {
			t.Fatal(err)
		}
		estimate(t, ro, "u0", "u3", "d0", "d3")
		out := ro.InstallBatch(ctx, []*nffg.NFFG{chainReq(t, "cut", "u0", "u3", "fw")}, unify.BatchObserver{})
		if !errors.Is(out[0].Err, unify.ErrRejected) || out[0].Attempts != 2 {
			t.Fatalf("want a rejection after escalating, got %v after %d attempts", out[0].Err, out[0].Attempts)
		}
		if st := ro.PipelineStats(); st.Escalations != 1 {
			t.Fatalf("escalations: %+v", st)
		}
	})
}

// TestShardedMatchesFlat is the decision-quality guard of the shard estimate:
// seeded random 1-3 NF chains, some NFs pinned, on a 6-domain ring with one
// CPU-poor domain and one NF type only one domain supports. Each one is
// installed and removed on a fresh per-domain sharded orchestrator and on a
// fresh single-shard one. Both must plan it alike (accept it, or reject it
// before any child sees it), and every sharded mapping must be valid on the
// DoV it was planned against.
//
// A child may still refuse a planned mapping: when a plan crosses one border
// SAP twice in the same direction, the leaf gets two untagged segments
// entering through the same port and refuses them as a flowrule conflict.
// Neither orchestrator foresees that, and the two plans differ, so the two
// refuse different requests. Those refusals are counted and logged, and must
// be flowrule conflicts; every other outcome must match.
func TestShardedMatchesFlat(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	ring := borderNet{n: 6, ring: true, extra: map[int]string{3: "ids"}, cpu: map[int]float64{1: 4}}
	flatRing := ring
	flatRing.cfg.ShardKey = SingleShard
	types := []string{"fw", "dpi", "nat", "ids"}
	var saps []nffg.ID
	for i := 0; i < ring.n; i++ {
		saps = append(saps, nffg.ID(fmt.Sprintf("u%d", i)), nffg.ID(fmt.Sprintf("b%d", i)))
	}
	// outcome classes an install's error: accepted, refused by a child after
	// the plan, or rejected by the orchestrator itself.
	outcome := func(seed int64, err error) string {
		switch {
		case err == nil:
			return "accepted"
		case !strings.Contains(err.Error(), "rejected: child "):
			return "rejected"
		case errors.Is(err, embed.ErrConflict):
			return "refused"
		}
		t.Fatalf("seed %d: a child refused the plan for a reason other than a flowrule conflict: %v", seed, err)
		return ""
	}
	ctx := context.Background()
	count := map[string]int{}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		id := fmt.Sprintf("s%d", seed)
		src := saps[rng.Intn(len(saps))]
		dst := saps[rng.Intn(len(saps))]
		for dst == src {
			dst = saps[rng.Intn(len(saps))]
		}
		b := nffg.NewBuilder(id).SAP(src).SAP(dst)
		path := []nffg.ID{src}
		pins := map[nffg.ID]nffg.ID{}
		for k := 0; k <= rng.Intn(3); k++ {
			nf := nffg.ID(fmt.Sprintf("%s-nf%d", id, k))
			b.NF(nf, types[rng.Intn(len(types))], 2, res(float64(2+4*rng.Intn(3)), 512))
			if rng.Intn(3) == 0 {
				pins[nf] = nffg.ID(fmt.Sprintf("bisbis@d%d", rng.Intn(ring.n)))
			}
			path = append(path, nf)
		}
		req := b.Chain(id, 10, 0, append(path, dst)...).MustBuild()
		for nf, host := range pins {
			req.NFs.Get(nf).Host = host
		}

		sharded, _ := ring.build(t)
		flat, _ := flatRing.build(t)
		dov := mustDoV(t, sharded)
		_, errSharded := sharded.Install(ctx, req.Copy())
		_, errFlat := flat.Install(ctx, req.Copy())
		got, want := outcome(seed, errSharded), outcome(seed, errFlat)
		if (got == "rejected") != (want == "rejected") {
			t.Fatalf("seed %d: %s -> %s, pins %v: sharded %v, flat %v\n%s", seed, src, dst, pins, errSharded, errFlat, req.Render())
		}
		count["sharded "+got]++
		count["flat "+want]++
		count["escalations"] += int(sharded.PipelineStats().Escalations)
		if got != "accepted" {
			continue
		}
		sharded.mu.Lock()
		mp := sharded.services[id].mapping
		sharded.mu.Unlock()
		g, err := embed.Apply(dov, mp)
		if err == nil {
			err = g.Validate()
		}
		if err != nil {
			t.Fatalf("seed %d: the sharded mapping is not valid on its DoV: %v", seed, err)
		}
		if err := sharded.Remove(ctx, id); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if left := mustDoV(t, sharded).NFIDs(); len(left) != 0 {
			t.Fatalf("seed %d: NFs left after removal: %v", seed, left)
		}
		if want == "accepted" {
			if err := flat.Remove(ctx, id); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
	t.Logf("%d seeds: %v", seeds, count)
	if count["sharded accepted"] == 0 || count["sharded rejected"] == 0 || count["escalations"] == 0 {
		t.Fatal("the generator should exercise acceptance, rejection and escalation")
	}
}
