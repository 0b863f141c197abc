package embed

import (
	"errors"
	"testing"

	"github.com/unify-repro/escape/internal/decomp"
	"github.com/unify-repro/escape/internal/nffg"
)

func TestMapScopedRestrictsHosts(t *testing.T) {
	sub := lineSubstrate(t)
	req := chainRequest(t, 1, 5, 0)
	// Only bb3 allowed.
	mp, err := NewDefault().MapScoped(sub, req, map[nffg.ID][]nffg.ID{"nf1": {"bb3"}})
	if err != nil {
		t.Fatal(err)
	}
	if mp.NFHost["nf1"] != "bb3" {
		t.Fatalf("scope ignored: %v", mp.NFHost)
	}
	// Empty feasible scope -> unmappable.
	_, err = NewDefault().MapScoped(sub, req, map[nffg.ID][]nffg.ID{"nf1": {"ghost"}})
	if !errors.Is(err, ErrUnmappable) {
		t.Fatalf("bogus scope: %v", err)
	}
}

func TestMapScopedMultiNFScopes(t *testing.T) {
	sub := lineSubstrate(t)
	req := chainRequest(t, 2, 5, 0)
	scope := map[nffg.ID][]nffg.ID{
		"nf1": {"bb1"},
		"nf2": {"bb3"},
	}
	mp, err := NewDefault().MapScoped(sub, req, scope)
	if err != nil {
		t.Fatal(err)
	}
	if mp.NFHost["nf1"] != "bb1" || mp.NFHost["nf2"] != "bb3" {
		t.Fatalf("scopes not honored: %v", mp.NFHost)
	}
}

func TestScopeInheritedByDecompositionComponents(t *testing.T) {
	sub := nffg.NewBuilder("sub").
		BiSBiS("bbA", "d", 4, res(8, 8192), "encrypt", "compress").
		BiSBiS("bbB", "d", 4, res(8, 8192), "encrypt", "compress").
		SAP("sap1").SAP("sap2").
		Link("l0", "sap1", "1", "bbA", "1", 100, 1).
		Link("l1", "bbA", "2", "bbB", "1", 1000, 1).
		Link("l2", "bbB", "2", "sap2", "1", 100, 1).
		MustBuild()
	req := nffg.NewBuilder("req").
		SAP("sap1").SAP("sap2").
		NF("vpn1", "vpn", 2, res(2, 512)).
		Chain("c", 5, 0, "sap1", "vpn1", "sap2").
		MustBuild()
	rules := decomp.NewRules()
	_ = rules.Add("vpn", decomp.Decomposition{
		Name: "split",
		Components: []decomp.Component{
			{Suffix: "enc", FunctionalType: "encrypt", Ports: 2, Demand: res(1, 128)},
			{Suffix: "cmp", FunctionalType: "compress", Ports: 2, Demand: res(1, 128)},
		},
		Internal: []decomp.InternalLink{{SrcComp: "enc", SrcPort: "2", DstComp: "cmp", DstPort: "1", Bandwidth: 5}},
		PortMaps: []decomp.PortMap{{Outer: "1", Comp: "enc", Inner: "1"}, {Outer: "2", Comp: "cmp", Inner: "2"}},
	})
	m := New(Options{MaxBacktrack: 32, Decomp: rules})
	// Scope the original NF to bbB only: both components must inherit it.
	mp, err := m.MapScoped(sub, req, map[nffg.ID][]nffg.ID{"vpn1": {"bbB"}})
	if err != nil {
		t.Fatal(err)
	}
	if mp.NFHost["vpn1.enc"] != "bbB" || mp.NFHost["vpn1.cmp"] != "bbB" {
		t.Fatalf("components escaped the scope: %v", mp.NFHost)
	}
}

func TestScopeForPrefixResolution(t *testing.T) {
	scope := map[nffg.ID]map[nffg.ID]bool{
		"vpn1": {"bbB": true},
	}
	if s := scopeFor(scope, "vpn1"); s == nil || !s["bbB"] {
		t.Fatal("exact lookup failed")
	}
	if s := scopeFor(scope, "vpn1.enc"); s == nil || !s["bbB"] {
		t.Fatal("one-level component lookup failed")
	}
	if s := scopeFor(scope, "vpn1.enc.a"); s == nil || !s["bbB"] {
		t.Fatal("nested component lookup failed")
	}
	if s := scopeFor(scope, "other"); s != nil {
		t.Fatal("unrelated NF should have no scope")
	}
	if s := scopeFor(scope, "vpn10.enc"); s != nil {
		t.Fatal("prefix must split on dots, not substrings")
	}
}

func TestRankFunctions(t *testing.T) {
	nf := &nffg.NF{ID: "x", Demand: nffg.Resources{CPU: 2}}
	cands := []Candidate{
		{ID: "big", Free: nffg.Resources{CPU: 16}},
		{ID: "small", Free: nffg.Resources{CPU: 2}},
		{ID: "mid", Free: nffg.Resources{CPU: 8}},
	}
	bf := BestFit(nf, append([]Candidate(nil), cands...))
	if bf[0] != "small" || bf[2] != "big" {
		t.Fatalf("BestFit: %v", bf)
	}
	wf := worstFit(nf, append([]Candidate(nil), cands...))
	if wf[0] != "big" || wf[2] != "small" {
		t.Fatalf("worstFit: %v", wf)
	}
	ff := FirstFit(nf, append([]Candidate(nil), cands...))
	if ff[0] != "big" || ff[1] != "mid" || ff[2] != "small" {
		t.Fatalf("FirstFit should be ID order: %v", ff)
	}
}

func TestMapperNames(t *testing.T) {
	if NewDefault().Name() != "greedy-bt" {
		t.Fatal(NewDefault().Name())
	}
	if NewFirstFit().Name() != "first-fit" {
		t.Fatal(NewFirstFit().Name())
	}
	if NewRandom(1).Name() != "random-fit" {
		t.Fatal(NewRandom(1).Name())
	}
}
