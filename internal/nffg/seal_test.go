package nffg

import (
	"testing"

	"github.com/unify-repro/escape/internal/topo"
)

// TestSealBlocksMutators pins the read-only handle discipline: every mutator
// panics on a sealed graph (in seal-check builds), and Copy hands back an
// unsealed graph that mutates freely.
func TestSealBlocksMutators(t *testing.T) {
	g := New("sealed")
	if err := g.AddInfra(&Infra{ID: "n1", Type: "bisbis", Ports: []*Port{{ID: "1"}, {ID: "2"}},
		Capacity: Resources{CPU: 4, Mem: 1024, Storage: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddSAP(&SAP{ID: "sap1"}); err != nil {
		t.Fatal(err)
	}
	g.Seal()
	if !g.Sealed() {
		t.Fatal("Seal did not mark the graph")
	}

	c := g.Copy()
	if c.Sealed() {
		t.Fatal("Copy of a sealed graph must be unsealed")
	}
	if err := c.AddSAP(&SAP{ID: "sap2"}); err != nil {
		t.Fatalf("mutating the copy: %v", err)
	}

	if !sealCheckEnabled {
		t.Skip("seal checks compiled out (enable with -race or -tags nffg_sealcheck)")
	}
	mutators := map[string]func(){
		"AddInfra":             func() { _ = g.AddInfra(&Infra{ID: "n2"}) },
		"AddNF":                func() { _ = g.AddNF(&NF{ID: "nf1"}) },
		"AddSAP":               func() { _ = g.AddSAP(&SAP{ID: "sap3"}) },
		"AddLink":              func() { _ = g.AddLink(&Link{ID: "l1", SrcNode: "sap1", SrcPort: "1", DstNode: "n1", DstPort: "1"}) },
		"AddHop":               func() { _ = g.AddHop(&SGHop{ID: "h1", SrcNode: "sap1", SrcPort: "1", DstNode: "n1", DstPort: "1"}) },
		"AddReq":               func() { _ = g.AddReq(&Requirement{ID: "r1"}) },
		"AddFlowrule":          func() { _ = g.AddFlowrule("n1", &Flowrule{ID: "f1"}) },
		"RemoveNF":             func() { _ = g.RemoveNF("nf1") },
		"RemoveFlowrulesByHop": func() { _ = g.RemoveFlowrulesByHop("h1") },
		"MutLink":              func() { _ = g.MutLink("l1") },
		"MutNF":                func() { _ = g.MutNF("nf1") },
		"Merge":                func() { _ = g.Merge(New("other")) },
		"Apply":                func() { _ = g.Apply(&Delta{}) },
		"NextVersion":          func() { _ = g.NextVersion() },
	}
	for name, mutate := range mutators {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a sealed graph did not panic", name)
				}
			}()
			mutate()
		}()
	}
}

// TestLinkWrittenOutsideEditLinksPanics pins the rule InfraTopo's kept shape
// rests on: through a link's pointer a caller writes only its Bandwidth, on
// every graph, a Copy included; any other field goes through EditLinks. In
// checked builds a breach panics at the next InfraTopo instead of being
// answered from the shape the graph was compiled with.
func TestLinkWrittenOutsideEditLinksPanics(t *testing.T) {
	base := NewBuilder("g").
		BiSBiS("bb1", "d", 4, Resources{CPU: 8}, "fw").
		BiSBiS("bb2", "d", 4, Resources{CPU: 8}, "fw").
		SAP("s1").
		Link("l1", "bb1", "1", "bb2", "1", 100, 0.5).
		Link("l2", "s1", "1", "bb1", "2", 100, 0.1).
		MustBuild()
	base.InfraTopo() // compiles the shape that Copy hands on
	base.Seal()

	l1 := func(g *NFFG) topo.Link {
		for _, l := range g.InfraTopo().Links() {
			if l.ID == "l1/fwd" {
				return l
			}
		}
		t.Fatal("InfraTopo lost link l1/fwd")
		return topo.Link{}
	}
	c := base.Copy()
	c.LinkByID("l1/fwd").Bandwidth = 7 // not part of the shape
	if got := l1(c).Bandwidth; got != 7 {
		t.Fatalf("bandwidth written through the pointer: InfraTopo reads %v, want 7", got)
	}
	c.EditLinks(func(l *Link) { l.Delay = 9 })
	if got := l1(c).Delay; got != 9 {
		t.Fatalf("delay written through EditLinks: InfraTopo reads %v, want 9", got)
	}

	if !sealCheckEnabled {
		t.Skip("link checks compiled out (enable with -race or -tags nffg_sealcheck)")
	}
	writes := map[string]func(l *Link){
		"a delay changed":  func(l *Link) { l.Delay = 9 },
		"a link renamed":   func(l *Link) { l.ID += "@child" },
		"a source swapped": func(l *Link) { l.SrcNode = "bb2" },
		"a target swapped": func(l *Link) { l.DstNode = "s1" },
		"a link reversed":  func(l *Link) { l.SrcNode, l.DstNode = l.DstNode, l.SrcNode },
	}
	for name, write := range writes {
		c := base.Copy()
		for l := range c.Links() {
			write(l)
			break
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s through a Copy's link pointer: InfraTopo did not panic", name)
				}
			}()
			c.InfraTopo()
		}()
	}
}
