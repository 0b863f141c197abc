package decomp

import (
	"errors"
	"strings"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
)

// vpnRule: "vpn" decomposes into encrypt + compress chained in sequence.
func vpnRule() Decomposition {
	return Decomposition{
		Name: "enc-comp",
		Components: []Component{
			{Suffix: "enc", FunctionalType: "encrypt", Ports: 2, Demand: nffg.Resources{CPU: 1, Mem: 256}},
			{Suffix: "cmp", FunctionalType: "compress", Ports: 2, Demand: nffg.Resources{CPU: 1, Mem: 128}},
		},
		Internal: []InternalLink{{SrcComp: "enc", SrcPort: "2", DstComp: "cmp", DstPort: "1", Bandwidth: 10}},
		PortMaps: []PortMap{{Outer: "1", Comp: "enc", Inner: "1"}, {Outer: "2", Comp: "cmp", Inner: "2"}},
		Cost:     2,
	}
}

func requestGraph(t *testing.T) *nffg.NFFG {
	t.Helper()
	g, err := nffg.NewBuilder("req").
		SAP("sapA").SAP("sapB").
		NF("vpn1", "vpn", 2, nffg.Resources{CPU: 4, Mem: 512}).
		Chain("c", 10, 0, "sapA", "vpn1", "sapB").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRulesValidation(t *testing.T) {
	r := NewRules()
	if err := r.Add("x", Decomposition{Name: "empty"}); !errors.Is(err, ErrBadRule) {
		t.Fatalf("empty rule: %v", err)
	}
	bad := vpnRule()
	bad.Internal[0].DstComp = "ghost"
	if err := r.Add("x", bad); !errors.Is(err, ErrBadRule) {
		t.Fatalf("dangling internal link: %v", err)
	}
	bad2 := vpnRule()
	bad2.PortMaps[0].Comp = "ghost"
	if err := r.Add("x", bad2); !errors.Is(err, ErrBadRule) {
		t.Fatalf("dangling port map: %v", err)
	}
	dup := vpnRule()
	dup.Components[1].Suffix = "enc"
	if err := r.Add("x", dup); !errors.Is(err, ErrBadRule) {
		t.Fatalf("duplicate suffix: %v", err)
	}
	if err := r.Add("vpn", vpnRule()); err != nil {
		t.Fatal(err)
	}
	if len(r.Candidates("vpn")) == 0 || len(r.Candidates("nope")) != 0 {
		t.Fatal("Candidates wrong")
	}
	if ts := r.Types(); len(ts) != 1 || ts[0] != "vpn" {
		t.Fatalf("Types: %v", ts)
	}
}

func TestCandidatesCostOrder(t *testing.T) {
	r := NewRules()
	cheap := vpnRule()
	cheap.Name = "cheap"
	cheap.Cost = 1
	costly := vpnRule()
	costly.Name = "costly"
	costly.Cost = 9
	_ = r.Add("vpn", costly)
	_ = r.Add("vpn", cheap)
	cs := r.Candidates("vpn")
	if len(cs) != 2 || cs[0].Name != "cheap" {
		t.Fatalf("candidates not cost ordered: %+v", cs)
	}
}

func TestExpandRewritesGraph(t *testing.T) {
	g := requestGraph(t)
	out, created, err := Expand(g, "vpn1", vpnRule())
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 2 {
		t.Fatalf("created: %v", created)
	}
	if _, ok := out.NFs.Lookup("vpn1"); ok {
		t.Fatal("original NF must be removed")
	}
	if _, ok := out.NFs.Lookup("vpn1.enc"); !ok {
		t.Fatal("component enc missing")
	}
	if _, ok := out.NFs.Lookup("vpn1.cmp"); !ok {
		t.Fatal("component cmp missing")
	}
	// Original had 2 hops; expansion adds 1 internal = 3 total.
	if len(out.Hops) != 3 {
		t.Fatalf("want 3 hops, got %d", len(out.Hops))
	}
	// External hops re-homed.
	var intoEnc, outOfCmp bool
	for _, h := range out.Hops {
		if h.SrcNode == "sapA" && h.DstNode == "vpn1.enc" && h.DstPort == "1" {
			intoEnc = true
		}
		if h.SrcNode == "vpn1.cmp" && h.SrcPort == "2" && h.DstNode == "sapB" {
			outOfCmp = true
		}
	}
	if !intoEnc || !outOfCmp {
		t.Fatalf("hops not re-homed: %+v", out.Hops)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("expanded graph invalid: %v", err)
	}
	// Original untouched.
	if _, ok := g.NFs.Lookup("vpn1"); !ok {
		t.Fatal("Expand must not mutate input")
	}
}

func TestExpandErrors(t *testing.T) {
	g := requestGraph(t)
	if _, _, err := Expand(g, "ghost", vpnRule()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing NF: %v", err)
	}
	noMap := vpnRule()
	noMap.PortMaps = noMap.PortMaps[:1] // port "2" unmapped
	if _, _, err := Expand(g, "vpn1", noMap); !errors.Is(err, ErrPortUnmap) {
		t.Fatalf("unmapped port: %v", err)
	}
}

func TestEnumerateDepth(t *testing.T) {
	r := NewRules()
	_ = r.Add("vpn", vpnRule())
	// encrypt further decomposes into two stages.
	_ = r.Add("encrypt", Decomposition{
		Name: "split",
		Components: []Component{
			{Suffix: "a", FunctionalType: "aes", Ports: 2, Demand: nffg.Resources{CPU: 1}},
			{Suffix: "b", FunctionalType: "hmac", Ports: 2, Demand: nffg.Resources{CPU: 1}},
		},
		Internal: []InternalLink{{SrcComp: "a", SrcPort: "2", DstComp: "b", DstPort: "1"}},
		PortMaps: []PortMap{{Outer: "1", Comp: "a", Inner: "1"}, {Outer: "2", Comp: "b", Inner: "2"}},
		Cost:     1,
	})
	g := requestGraph(t)
	vs0 := Enumerate(g, r, 0)
	if len(vs0) != 1 {
		t.Fatalf("depth 0 must yield only the original, got %d", len(vs0))
	}
	vs1 := Enumerate(g, r, 1)
	if len(vs1) != 2 { // original + vpn expansion
		t.Fatalf("depth 1: want 2 variants, got %d", len(vs1))
	}
	vs2 := Enumerate(g, r, 2)
	if len(vs2) != 3 { // + encrypt re-expansion inside the vpn expansion
		t.Fatalf("depth 2: want 3 variants, got %d", len(vs2))
	}
	// Cost ordering: original (0) first.
	if vs2[0].Cost != 0 || len(vs2[0].Applied) != 0 {
		t.Fatalf("original must sort first: %+v", vs2[0])
	}
	deepest := vs2[len(vs2)-1]
	if len(deepest.Applied) != 2 || !strings.HasPrefix(deepest.Applied[1], "vpn1.enc:") {
		t.Fatalf("recursive variant wrong: %+v", deepest.Applied)
	}
	// Deep variant must validate and contain the sub-components.
	if _, ok := deepest.G.NFs.Lookup("vpn1.enc.a"); !ok {
		t.Fatalf("nested component missing: %v", deepest.G.NFIDs())
	}
	if err := deepest.G.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerateNilRules(t *testing.T) {
	g := requestGraph(t)
	vs := Enumerate(g, nil, 3)
	if len(vs) != 1 {
		t.Fatalf("nil rules: want original only, got %d", len(vs))
	}
}

func TestEnumerateSkipsPlacedNFs(t *testing.T) {
	r := NewRules()
	_ = r.Add("vpn", vpnRule())
	g := requestGraph(t)
	// Pretend vpn1 is already placed: not a rewrite target anymore.
	g.NFs.Get("vpn1").Host = "somewhere"
	vs := Enumerate(g, r, 2)
	if len(vs) != 1 {
		t.Fatalf("placed NFs must not decompose, got %d variants", len(vs))
	}
}
