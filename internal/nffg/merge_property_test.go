package nffg

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// prefixedGraph builds a random graph whose node IDs carry a unique prefix,
// so merges of differently-prefixed graphs never collide except on the
// shared border SAP.
func prefixedGraph(rng *rand.Rand, prefix string, border ID) *NFFG {
	g := New(prefix)
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		infra := &Infra{
			ID:       ID(fmt.Sprintf("%s-bb%d", prefix, i)),
			Domain:   prefix,
			Type:     "bisbis",
			Capacity: Resources{CPU: 8, Mem: 4096, Storage: 32},
			Ports:    []*Port{{ID: "1"}, {ID: "2"}, {ID: "3"}},
		}
		_ = g.AddInfra(infra)
	}
	_ = g.AddSAP(&SAP{ID: ID(prefix + "-sap"), Port: &Port{ID: "1"}})
	_ = g.AddSAP(&SAP{ID: border, Port: &Port{ID: "1"}})
	ids := g.InfraIDs()
	_ = g.AddLink(&Link{ID: prefix + "-u", SrcNode: ID(prefix + "-sap"), SrcPort: "1", DstNode: ids[0], DstPort: "1", Bandwidth: 100})
	_ = g.AddLink(&Link{ID: prefix + "-b", SrcNode: ids[len(ids)-1], SrcPort: "2", DstNode: border, DstPort: "1", Bandwidth: 100})
	for i := 0; i < len(ids)-1; i++ {
		_ = g.AddLink(&Link{ID: fmt.Sprintf("%s-l%d", prefix, i), SrcNode: ids[i], SrcPort: "3", DstNode: ids[i+1], DstPort: "3", Bandwidth: 100})
	}
	return g
}

// Property: merging k disjoint domain views stitched at one border SAP
// yields exactly the union of nodes, one shared SAP, the union of links,
// and validates.
func TestMergeUnionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(3)
		var views []*NFFG
		wantInfras, wantLinks := 0, 0
		for i := 0; i < k; i++ {
			v := prefixedGraph(rng, fmt.Sprintf("d%d", i), "border")
			wantInfras += v.Infras.Len()
			wantLinks += v.links.len()
			views = append(views, v)
		}
		dov := New("dov")
		for _, v := range views {
			if err := dov.Merge(v); err != nil {
				return false
			}
		}
		if dov.Infras.Len() != wantInfras {
			return false
		}
		// k per-domain user SAPs + 1 shared border.
		if dov.SAPs.Len() != k+1 {
			return false
		}
		if dov.links.len() != wantLinks {
			return false
		}
		if err := dov.Validate(); err != nil {
			return false
		}
		// All domains reachable from each other through the border SAP.
		tg := dov.InfraTopo()
		first := dov.InfraIDs()[0]
		for _, id := range dov.InfraIDs() {
			// Links are directed both ways along the chains here? They are
			// single-direction; use weak connectivity via Components.
			_ = id
		}
		comps := tg.Components()
		return len(comps) == 1 && first != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge never mutates its source graphs.
func TestMergeSourceIsolationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := prefixedGraph(rng, "a", "bx")
		bGraph := prefixedGraph(rng, "b", "bx")
		aBefore := a.Render()
		bBefore := bGraph.Render()
		dov := New("dov")
		if err := dov.Merge(a); err != nil {
			return false
		}
		if err := dov.Merge(bGraph); err != nil {
			return false
		}
		// Mutate the merged graph heavily.
		for _, i := range dov.Infras.All() {
			i.Capacity.CPU = -1
		}
		for l := range dov.Links() {
			l.Bandwidth = -1
		}
		return a.Render() == aBefore && bGraph.Render() == bBefore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
