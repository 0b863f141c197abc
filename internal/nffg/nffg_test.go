package nffg

import (
	"errors"
	"strings"
	"testing"

	"github.com/unify-repro/escape/internal/topo"
)

func res(cpu, mem float64) Resources { return Resources{CPU: cpu, Mem: mem, Storage: 10} }

// twoNodeGraph: sap1 - bb1 - bb2 - sap2, one NF mapped on bb1.
func twoNodeGraph(t *testing.T) *NFFG {
	t.Helper()
	g, err := NewBuilder("test").
		BiSBiS("bb1", "dom1", 4, res(8, 4096), "firewall", "dpi").
		BiSBiS("bb2", "dom2", 4, res(4, 2048), "nat").
		SAP("sap1").SAP("sap2").
		Link("l1", "sap1", "1", "bb1", "1", 100, 1).
		Link("l2", "bb1", "2", "bb2", "1", 1000, 2).
		Link("l3", "bb2", "2", "sap2", "1", 100, 1).
		NF("fw", "firewall", 2, res(2, 512)).
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	mapNF(g, "fw", "bb1")
	return g
}

// mapNF places an NF of a graph being built on a host.
func mapNF(g *NFFG, id, host ID) {
	g.NFs.Get(id).Host = host
	g.NFs.Get(id).Status = StatusMapped
}

func TestBuilderAndValidate(t *testing.T) {
	g := twoNodeGraph(t)
	if g.Infras.Len() != 2 || g.SAPs.Len() != 2 || g.NFs.Len() != 1 {
		t.Fatalf("unexpected graph shape:\n%s", g.Render())
	}
	if len(g.Links) != 6 { // 3 duplex = 6 directed
		t.Fatalf("want 6 links, got %d", len(g.Links))
	}
}

func TestDuplicateIDs(t *testing.T) {
	g := New("t")
	if err := g.AddInfra(&Infra{ID: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNF(&NF{ID: "x"}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("cross-kind duplicate should fail: %v", err)
	}
	if err := g.AddSAP(&SAP{ID: "x"}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("SAP duplicate should fail: %v", err)
	}
}

func TestLinkEndpointValidation(t *testing.T) {
	g := New("t")
	_ = g.AddInfra(&Infra{ID: "a", Ports: []*Port{{ID: "1"}}})
	err := g.AddLink(&Link{ID: "l", SrcNode: "a", SrcPort: "9", DstNode: "a", DstPort: "1"})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing port should fail: %v", err)
	}
	err = g.AddLink(&Link{ID: "l", SrcNode: "ghost", SrcPort: "1", DstNode: "a", DstPort: "1"})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing node should fail: %v", err)
	}
}

func TestAvailableResources(t *testing.T) {
	g := twoNodeGraph(t)
	avail, err := g.AvailableResources("bb1")
	if err != nil {
		t.Fatal(err)
	}
	if avail.CPU != 6 || avail.Mem != 4096-512 {
		t.Fatalf("unexpected available: %+v", avail)
	}
	// Oversubscribe.
	g.NFs.Get("fw").Demand = res(100, 512)
	if _, err := g.AvailableResources("bb1"); err == nil {
		t.Fatal("oversubscription should be detected")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should reject oversubscription")
	}
}

func TestValidateNFSupport(t *testing.T) {
	g := twoNodeGraph(t)
	g.NFs.Get("fw").Host = "bb2" // bb2 supports only nat
	if err := g.Validate(); err == nil {
		t.Fatal("unsupported NF type should fail validation")
	}
}

func TestRemoveNFDropsHops(t *testing.T) {
	g := twoNodeGraph(t)
	if _, err := BuildChain(g, "c", 10, 0, "sap1", "fw", "sap2"); err != nil {
		t.Fatal(err)
	}
	if len(g.Hops) != 2 {
		t.Fatalf("want 2 hops, got %d", len(g.Hops))
	}
	if err := g.RemoveNF("fw"); err != nil {
		t.Fatal(err)
	}
	if len(g.Hops) != 0 {
		t.Fatalf("hops touching removed NF must go, got %d", len(g.Hops))
	}
}

func TestFlowruleValidation(t *testing.T) {
	g := twoNodeGraph(t)
	// Valid: infra port -> NF port on same node.
	err := g.AddFlowrule("bb1", &Flowrule{
		ID:     "r1",
		Match:  Match{InPort: InfraPort("1"), Tag: "c1"},
		Action: Action{Output: NFPort("fw", "1"), PopTag: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Invalid: NF hosted elsewhere.
	err = g.AddFlowrule("bb2", &Flowrule{
		ID:     "r2",
		Match:  Match{InPort: InfraPort("1")},
		Action: Action{Output: NFPort("fw", "1")},
	})
	if err == nil {
		t.Fatal("rule referencing foreign NF should fail")
	}
	// Invalid: unknown infra port.
	err = g.AddFlowrule("bb1", &Flowrule{
		ID:     "r3",
		Match:  Match{InPort: InfraPort("99")},
		Action: Action{Output: InfraPort("1")},
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown port should fail: %v", err)
	}
	// Duplicate rule ID on the same node.
	err = g.AddFlowrule("bb1", &Flowrule{
		ID:     "r1",
		Match:  Match{InPort: InfraPort("2")},
		Action: Action{Output: InfraPort("1")},
	})
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate rule ID should fail: %v", err)
	}
}

func TestRemoveFlowrulesByHop(t *testing.T) {
	g := twoNodeGraph(t)
	_ = g.AddFlowrule("bb1", &Flowrule{ID: "a", Match: Match{InPort: InfraPort("1")}, Action: Action{Output: InfraPort("2")}, HopID: "h1"})
	_ = g.AddFlowrule("bb1", &Flowrule{ID: "b", Match: Match{InPort: InfraPort("2")}, Action: Action{Output: InfraPort("1")}, HopID: "h2"})
	_ = g.AddFlowrule("bb2", &Flowrule{ID: "c", Match: Match{InPort: InfraPort("1")}, Action: Action{Output: InfraPort("2")}, HopID: "h1"})
	if n := g.RemoveFlowrulesByHop("h1"); n != 2 {
		t.Fatalf("want 2 removed, got %d", n)
	}
	if len(g.Infras.Get("bb1").Flowrules) != 1 || len(g.Infras.Get("bb2").Flowrules) != 0 {
		t.Fatal("wrong rules left behind")
	}
}

func TestInfraTopoProjection(t *testing.T) {
	g := twoNodeGraph(t)
	tg := g.InfraTopo()
	if tg.NumNodes() != 4 { // 2 infra + 2 SAP
		t.Fatalf("want 4 nodes, got %d", tg.NumNodes())
	}
	if tg.NumLinks() != 6 {
		t.Fatalf("want 6 directed links, got %d", tg.NumLinks())
	}
	if _, err := tg.ShortestPath("sap1", "sap2", topo.PathOpts{}); err != nil {
		t.Fatalf("sap1->sap2 should be reachable: %v", err)
	}
}

func TestMergeStitchesSAPs(t *testing.T) {
	d1 := NewBuilder("d1").
		BiSBiS("a", "d1", 2, res(4, 1024)).
		SAP("border").
		Link("l1", "a", "1", "border", "1", 100, 1).
		MustBuild()
	d2 := NewBuilder("d2").
		BiSBiS("b", "d2", 2, res(4, 1024)).
		SAP("border").
		Link("l1", "b", "1", "border", "1", 100, 1).
		MustBuild()
	dov := New("dov")
	if err := dov.Merge(d1); err != nil {
		t.Fatal(err)
	}
	if err := dov.Merge(d2); err != nil {
		t.Fatal(err)
	}
	if dov.SAPs.Len() != 1 {
		t.Fatalf("shared SAP should stitch, got %d SAPs", dov.SAPs.Len())
	}
	if dov.Infras.Len() != 2 {
		t.Fatalf("want both infras, got %d", dov.Infras.Len())
	}
	// Conflicting link IDs must be renamed, not dropped.
	if len(dov.Links) != 4 {
		t.Fatalf("want 4 directed links, got %d", len(dov.Links))
	}
	tg := dov.InfraTopo()
	if !tg.Connected("a", "b") {
		t.Fatal("domains should be connected through the shared SAP")
	}
}

func TestMergeRejectsDuplicateInfra(t *testing.T) {
	d1 := NewBuilder("d1").BiSBiS("same", "d1", 1, res(1, 1)).MustBuild()
	d2 := NewBuilder("d2").BiSBiS("same", "d2", 1, res(1, 1)).MustBuild()
	dov := New("dov")
	if err := dov.Merge(d1); err != nil {
		t.Fatal(err)
	}
	if err := dov.Merge(d2); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate infra across domains must fail: %v", err)
	}
}

func TestCopyIsDeep(t *testing.T) {
	g := twoNodeGraph(t)
	_ = g.AddFlowrule("bb1", &Flowrule{ID: "r", Match: Match{InPort: InfraPort("1")}, Action: Action{Output: InfraPort("2")}})
	c := g.Copy()
	c.Infras.Get("bb1").Flowrules[0].Action.Output = InfraPort("3")
	c.NFs.Get("fw").Host = "bb2"
	c.Links[0].Bandwidth = 1
	if g.Infras.Get("bb1").Flowrules[0].Action.Output != InfraPort("2") {
		t.Fatal("flowrule mutation leaked")
	}
	if g.NFs.Get("fw").Host != "bb1" {
		t.Fatal("NF mutation leaked")
	}
	if g.Links[0].Bandwidth == 1 {
		t.Fatal("link mutation leaked")
	}
}

func TestRender(t *testing.T) {
	g := twoNodeGraph(t)
	r := g.Render()
	for _, want := range []string{"[BiSBiS bb1]", "[SAP sap1]", "NF fw (firewall)"} {
		if !strings.Contains(r, want) {
			t.Fatalf("render missing %q:\n%s", want, r)
		}
	}
}

func TestChainBuilder(t *testing.T) {
	g := twoNodeGraph(t)
	hops, err := BuildChain(g, "sc1", 10, 5, "sap1", "fw", "sap2")
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 2 {
		t.Fatalf("want 2 hops, got %d", len(hops))
	}
	h := g.HopByID("sc1-2")
	if h == nil || h.SrcNode != "fw" || h.SrcPort != "2" {
		t.Fatalf("chain should leave NF via port 2: %+v", h)
	}
	if _, err := BuildChain(g, "bad", 1, 1, "sap1"); err == nil {
		t.Fatal("single-node chain must fail")
	}
}

func TestRequirementValidation(t *testing.T) {
	g := twoNodeGraph(t)
	hops, _ := BuildChain(g, "c", 10, 0, "sap1", "fw", "sap2")
	if err := g.AddReq(&Requirement{ID: "r1", SrcNode: "sap1", DstNode: "sap2", HopIDs: hops, Bandwidth: 10, Delay: 50}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddReq(&Requirement{ID: "r2", HopIDs: []string{"ghost"}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("requirement on missing hop must fail: %v", err)
	}
}

func TestResourcesArithmetic(t *testing.T) {
	r := Resources{CPU: 4, Mem: 100, Storage: 10}
	d := Resources{CPU: 1, Mem: 30, Storage: 5}
	got, ok := r.Sub(d)
	if !ok || got.CPU != 3 || got.Mem != 70 || got.Storage != 5 {
		t.Fatalf("sub wrong: %+v ok=%v", got, ok)
	}
	if _, ok := got.Sub(Resources{CPU: 10}); ok {
		t.Fatal("negative sub should report !ok")
	}
	back := got.Add(d)
	if back.CPU != 4 || back.Mem != 100 || back.Storage != 10 {
		t.Fatalf("add wrong: %+v", back)
	}
	if !r.Fits(d) || d.Fits(r) {
		t.Fatal("fits misbehaving")
	}
}

// A graph that carries its shape pays for a topology with the graph value and
// its bandwidth vector; everything else is checked and reused in place.
func TestInfraTopoAllocations(t *testing.T) {
	if sealCheckEnabled {
		t.Skip("allocation counts are pinned in plain builds only")
	}
	g := substrate()
	g.InfraTopo()
	next := g.Copy()
	if n := testing.AllocsPerRun(100, func() { next.InfraTopo() }); n > 2 {
		t.Errorf("InfraTopo on a copy that inherited the shape: %v allocations, want at most 2", n)
	}
}
