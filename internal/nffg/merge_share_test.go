package nffg_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/nffg"
)

// shareShards builds 2–4 seeded random shards stitched at one border SAP.
// Each hosts one mapped chain with an end-to-end requirement, so it carries
// NFs, flowrules, hops and requirements, and each holds a link "trunk", so
// every merge after the first renames one. It returns the sealed shards and
// each shard's chain mapping.
func shareShards(t *testing.T, seed int64) ([]*nffg.NFFG, []*embed.Mapping) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var shards []*nffg.NFFG
	var chains []*embed.Mapping
	for k := 2 + rng.Intn(3); len(shards) < k; {
		prefix := fmt.Sprintf("d%d", len(shards))
		g := nffg.PrefixedGraph(rng, prefix, "border")
		for _, i := range g.Infras.All() {
			i.Supported = []string{"fw"}
		}
		first := g.InfraIDs()[0]
		if err := g.AddLink(&nffg.Link{ID: "trunk", SrcNode: "border", SrcPort: "1", DstNode: first, DstPort: "2", Bandwidth: 100}); err != nil {
			t.Fatal(err)
		}
		mp := mapChain(t, g, prefix+"-c", nffg.ID(prefix+"-sap"), "border")
		if err := embed.ApplyTo(g, mp); err != nil {
			t.Fatal(err)
		}
		shards = append(shards, g.Seal())
		chains = append(chains, mp)
	}
	return shards, chains
}

// mapChain plans a one-NF chain from a to b, with a requirement over both
// hops, on g.
func mapChain(t *testing.T, g *nffg.NFFG, id string, a, b nffg.ID) *embed.Mapping {
	t.Helper()
	nf := nffg.ID(id + "-nf")
	req := nffg.NewBuilder(id).SAP(a).SAP(b).
		NF(nf, "fw", 2, nffg.Resources{CPU: 1, Mem: 64, Storage: 1}).
		Chain(id, 5, 0, a, nf, b).
		Requirement(id+"-req", a, b, 5, 100, id+"-1", id+"-2").
		MustBuild()
	mp, err := embed.NewDefault().Map(g, req)
	if err != nil {
		t.Fatalf("map %s: %v", id, err)
	}
	return mp
}

// TestMergeSharesSealedSources is the oracle of a merge that shares its
// sealed sources: the merged cut encodes exactly like the copying merge of
// deep copies, holds every source infra and NF by pointer, and neither a
// fork of the sealed cut nor the unsealed merged graph itself changes a
// source through any mutator, embed.ApplyTo or embed.Release.
func TestMergeSharesSealedSources(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		shards, chains := shareShards(t, seed)
		before := make([][]byte, len(shards))
		cut, merged, ref := nffg.New("dov"), nffg.New("dov"), nffg.New("dov")
		for i, s := range shards {
			before[i] = encodeGraph(t, s)
			if err := cut.Merge(s); err != nil {
				t.Fatal(err)
			}
			if err := merged.Merge(s); err != nil {
				t.Fatal(err)
			}
			if err := nffg.ReferenceMerge(ref, s.Copy()); err != nil {
				t.Fatal(err)
			}
		}
		if c, r := encodeGraph(t, cut), encodeGraph(t, ref); !bytes.Equal(c, r) {
			t.Fatalf("seed %d: shared merge differs from the copying merge:\nshared %s\ncopied %s", seed, c, r)
		}
		if ref.LinkByID("trunk@d1") == nil {
			t.Fatalf("seed %d: no link was renamed", seed)
		}
		for _, s := range shards {
			for id, i := range s.Infras.All() {
				if cut.Infras.Get(id) != i {
					t.Fatalf("seed %d: infra %s was copied, not shared", seed, id)
				}
			}
			for id, n := range s.NFs.All() {
				if cut.NFs.Get(id) != n {
					t.Fatalf("seed %d: NF %s was copied, not shared", seed, id)
				}
			}
		}
		cut.Seal()
		sealedCut := encodeGraph(t, cut)

		// The same steps on the copying merge, on a fork of the sealed cut
		// and on the unsealed merged graph. A mapping is planned once, on the
		// copy, which goes first, so all three apply the same one.
		graphs := []*nffg.NFFG{ref, cut.Fork(), merged}
		var extra *embed.Mapping
		steps := []struct {
			name string
			do   func(g *nffg.NFFG) error
		}{
			{"AddFlowrule", func(g *nffg.NFFG) error {
				for _, id := range g.InfraIDs() {
					if err := g.AddFlowrule(id, &nffg.Flowrule{ID: "x", Match: nffg.Match{InPort: nffg.InfraPort("3"), Tag: "x"},
						Action: nffg.Action{Output: nffg.InfraPort("1")}, HopID: "x"}); err != nil {
						return err
					}
				}
				return nil
			}},
			{"RemoveFlowrulesByHop", func(g *nffg.NFFG) error {
				g.RemoveFlowrulesByHop("d1-c-1")
				return nil
			}},
			{"MutLink", func(g *nffg.NFFG) error {
				for l := range ref.Links() {
					g.MutLink(l.ID).Bandwidth -= 1
				}
				return nil
			}},
			{"Apply", func(g *nffg.NFFG) error {
				return g.Apply(&nffg.Delta{
					AddNFs: []*nffg.NF{{ID: "y", FunctionalType: "fw", Ports: []*nffg.Port{{ID: "1"}}, Host: "d1-bb0"}},
					DelNFs: []nffg.ID{"d1-c-nf"},
					AddRules: map[nffg.ID][]*nffg.Flowrule{"d0-bb0": {{ID: "y", Match: nffg.Match{InPort: nffg.InfraPort("3"), Tag: "y"},
						Action: nffg.Action{Output: nffg.InfraPort("2")}}}},
				})
			}},
			{"embed.Release", func(g *nffg.NFFG) error { return embed.Release(g, chains[0]) }},
			{"embed.ApplyTo", func(g *nffg.NFFG) error {
				if extra == nil {
					extra = mapChain(t, ref, "m", "d0-sap", "border")
				}
				return embed.ApplyTo(g, extra)
			}},
			{"embed.Release again", func(g *nffg.NFFG) error { return embed.Release(g, extra) }},
		}
		for _, st := range steps {
			for _, g := range graphs {
				if err := st.do(g); err != nil {
					t.Fatalf("seed %d %s: %v", seed, st.name, err)
				}
			}
			for i, s := range shards {
				if !bytes.Equal(encodeGraph(t, s), before[i]) {
					t.Fatalf("seed %d %s: shard %s changed under the merged graphs", seed, st.name, s.ID)
				}
			}
			if !bytes.Equal(encodeGraph(t, cut), sealedCut) {
				t.Fatalf("seed %d %s: the sealed cut changed under its fork", seed, st.name)
			}
			want := encodeGraph(t, ref)
			for i, g := range graphs[1:] {
				if got := encodeGraph(t, g); !bytes.Equal(got, want) {
					t.Fatalf("seed %d %s: %s differs from the copying merge:\ngot  %s\nwant %s", seed, st.name, []string{"the fork", "the merged graph"}[i], got, want)
				}
			}
		}
	}
}
