package core

import (
	"errors"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
)

func res(cpu, mem float64) nffg.Resources { return nffg.Resources{CPU: cpu, Mem: mem, Storage: cpu} }

// twoDomainDov: two domains of two nodes each, stitched by border SAP "b-ab",
// with user SAPs sap1 (domain A side) and sap2 (domain B side).
func twoDomainDov(t testing.TB) *nffg.NFFG {
	t.Helper()
	g, err := nffg.NewBuilder("dov").
		BiSBiS("a1", "domA", 4, res(8, 4096), "fw").
		BiSBiS("a2", "domA", 4, res(4, 2048), "fw", "dpi").
		BiSBiS("b1", "domB", 4, res(16, 8192), "nat").
		BiSBiS("b2", "domB", 4, res(8, 4096), "nat", "cache").
		SAP("sap1").SAP("sap2").SAP("b-ab").
		Link("l1", "sap1", "1", "a1", "1", 100, 1).
		Link("l2", "a1", "2", "a2", "1", 1000, 1).
		Link("l3", "a2", "2", "b-ab", "1", 500, 2).
		Link("l4", "b-ab", "1", "b1", "1", 500, 2).
		Link("l5", "b1", "2", "b2", "1", 1000, 1).
		Link("l6", "b2", "2", "sap2", "1", 100, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTransparentView(t *testing.T) {
	dov := twoDomainDov(t)
	v, err := Transparent{}.View(dov)
	if err != nil {
		t.Fatal(err)
	}
	if v.Infras.Len() != 4 || v.SAPs.Len() != 3 {
		t.Fatalf("transparent view must be 1:1: %s", v.Render())
	}
	// Mutating the view must not touch the DoV.
	v.Infras.Get("a1").Capacity.CPU = 0
	if dov.Infras.Get("a1").Capacity.CPU != 8 {
		t.Fatal("view aliases DoV")
	}
	sc := Transparent{}.Scope(dov, "a1")
	if len(sc) != 1 || sc[0] != "a1" {
		t.Fatalf("scope: %v", sc)
	}
	if (Transparent{}).Scope(dov, "ghost") != nil {
		t.Fatal("unknown node must scope to nil")
	}
}

func TestSingleBiSBiSView(t *testing.T) {
	dov := twoDomainDov(t)
	virt := SingleBiSBiS{}
	v, err := virt.View(dov)
	if err != nil {
		t.Fatal(err)
	}
	if v.Infras.Len() != 1 {
		t.Fatalf("single view must have 1 node: %s", v.Render())
	}
	agg := v.Infras.Get("bisbis0")
	if agg == nil {
		t.Fatal("aggregate node missing")
	}
	if agg.Capacity.CPU != 8+4+16+8 {
		t.Fatalf("aggregate CPU: %g", agg.Capacity.CPU)
	}
	// Union of supported types.
	for _, want := range []string{"fw", "dpi", "nat", "cache"} {
		if !agg.SupportsNF(want) {
			t.Fatalf("aggregate should support %s: %v", want, agg.Supported)
		}
	}
	// All three SAPs present and linked.
	if v.SAPs.Len() != 3 {
		t.Fatalf("SAPs: %d", v.SAPs.Len())
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	// Scope expands to all DoV nodes.
	sc := virt.Scope(dov, "bisbis0")
	if len(sc) != 4 {
		t.Fatalf("scope: %v", sc)
	}
}

func TestSingleBiSBiSAccountsDeployedNFs(t *testing.T) {
	dov := twoDomainDov(t)
	dov.NFs.Set("x", &nffg.NF{ID: "x", FunctionalType: "fw", Ports: []*nffg.Port{{ID: "1"}}, Demand: res(3, 1024), Host: "a1", Status: nffg.StatusDeployed})
	v, err := SingleBiSBiS{}.View(dov)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Infras.Get("bisbis0").Capacity.CPU; got != 36-3 {
		t.Fatalf("deployed NFs must reduce the aggregate: %g", got)
	}
}

func TestDomainBiSBiSView(t *testing.T) {
	dov := twoDomainDov(t)
	virt := DomainBiSBiS{}
	v, err := virt.View(dov)
	if err != nil {
		t.Fatal(err)
	}
	if v.Infras.Len() != 2 {
		t.Fatalf("want one aggregate per domain: %s", v.Render())
	}
	aggA := v.Infras.Get(nffg.ID("bisbis@domA"))
	aggB := v.Infras.Get(nffg.ID("bisbis@domB"))
	if aggA == nil || aggB == nil {
		t.Fatalf("aggregates missing: %v", v.InfraIDs())
	}
	if aggA.Capacity.CPU != 12 || aggB.Capacity.CPU != 24 {
		t.Fatalf("per-domain capacities: %g/%g", aggA.Capacity.CPU, aggB.Capacity.CPU)
	}
	if !aggA.SupportsNF("dpi") || aggA.SupportsNF("nat") {
		t.Fatalf("domA types: %v", aggA.Supported)
	}
	// Border SAP connects the two aggregates (via its two uplinks).
	tg := v.InfraTopo()
	if !tg.Connected("bisbis@domA", "bisbis@domB") {
		t.Fatalf("aggregates must be connected through the border SAP:\n%s", v.Render())
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	// Scopes.
	scA := virt.Scope(dov, "bisbis@domA")
	if len(scA) != 2 || scA[0] != "a1" || scA[1] != "a2" {
		t.Fatalf("domA scope: %v", scA)
	}
	if virt.Scope(dov, "nope") != nil {
		t.Fatal("unknown scope must be nil")
	}
}

func TestViewsRejectEmptyDov(t *testing.T) {
	empty := nffg.New("empty")
	for _, virt := range []Virtualizer{Transparent{}, SingleBiSBiS{}, DomainBiSBiS{}} {
		if _, err := virt.View(empty); !errors.Is(err, ErrEmptyView) {
			t.Fatalf("%s should reject empty DoV: %v", virt.Name(), err)
		}
	}
}
