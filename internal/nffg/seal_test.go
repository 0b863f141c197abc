package nffg

import "testing"

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
