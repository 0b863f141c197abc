package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// recordingProgrammer counts committed operations.
type recordingProgrammer struct {
	mu      sync.Mutex
	commits int
	addNFs  int
	delNFs  int
	addRule int
	delRule int
	failPfx string // fail when a committed NF ID has this prefix
}

func (p *recordingProgrammer) Commit(_ context.Context, d *nffg.Delta, _ *nffg.NFFG) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, nf := range d.AddNFs {
		if p.failPfx != "" && strings.HasPrefix(string(nf.ID), p.failPfx) {
			return errors.New("programmer: induced failure")
		}
	}
	an, dn, ar, dr := d.Counts()
	p.commits++
	p.addNFs += an
	p.delNFs += dn
	p.addRule += ar
	p.delRule += dr
	return nil
}

// leafDomain builds a local orchestrator over a 2-node substrate with the
// given domain name, a user SAP and a border SAP.
func leafDomain(t testing.TB, name string, userSAP, borderSAP nffg.ID, prog Programmer) *LocalOrchestrator {
	t.Helper()
	sub, err := nffg.NewBuilder(name).
		BiSBiS(nffg.ID(name+"-n1"), name, 4, res(8, 4096), "fw", "dpi", "nat").
		BiSBiS(nffg.ID(name+"-n2"), name, 4, res(8, 4096), "fw", "dpi", "nat").
		SAP(userSAP).SAP(borderSAP).
		Link("u", userSAP, "1", nffg.ID(name+"-n1"), "1", 100, 1).
		Link("i", nffg.ID(name+"-n1"), "2", nffg.ID(name+"-n2"), "1", 1000, 1).
		Link("b", nffg.ID(name+"-n2"), "2", borderSAP, "1", 500, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	lo, err := NewLocalOrchestrator(LocalConfig{ID: name, Substrate: sub, Programmer: prog})
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

// mustDoV reads the orchestrator's consistent DoV cut, failing the test on a
// merge error. The returned graph is a shared sealed snapshot: read-only.
func mustDoV(t testing.TB, ro *ResourceOrchestrator) *nffg.NFFG {
	t.Helper()
	dov, err := ro.DoV()
	if err != nil {
		t.Fatal(err)
	}
	return dov
}

// chainReq builds sap1 -> fw -> sap2 with the given id.
func chainReq(t testing.TB, id string, sapA, sapB nffg.ID, nfType string) *nffg.NFFG {
	t.Helper()
	g, err := nffg.NewBuilder(id).
		SAP(sapA).SAP(sapB).
		NF(nffg.ID(id+"-nf"), nfType, 2, res(2, 512)).
		Chain(id, 10, 0, sapA, nffg.ID(id+"-nf"), sapB).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLocalOrchestratorLifecycle(t *testing.T) {
	prog := &recordingProgrammer{}
	lo := leafDomain(t, "mn", "sap1", "border", prog)

	v, err := lo.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Infras.Len() != 1 {
		t.Fatalf("leaf should export single BiSBiS: %s", v.Render())
	}

	req := chainReq(t, "svc1", "sap1", "border", "fw")
	// Pin to the view node: the local orchestrator must expand the pin.
	req.NFs.Get("svc1-nf").Host = "bisbis@mn"
	receipt, err := lo.Install(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if receipt.ServiceID != "svc1" {
		t.Fatalf("receipt: %+v", receipt)
	}
	host := receipt.Placements["svc1-nf"]
	if host != "mn-n1" && host != "mn-n2" {
		t.Fatalf("placement on internal node expected, got %s", host)
	}
	if prog.commits != 1 || prog.addNFs != 1 || prog.addRule == 0 {
		t.Fatalf("programmer not driven: %+v", prog)
	}
	if got := lo.Services(); len(got) != 1 || got[0] != "svc1" {
		t.Fatalf("services: %v", got)
	}
	// View shrinks by the NF demand.
	v2, _ := lo.View(context.Background())
	if v2.Infras.Get("bisbis@mn").Capacity.CPU != 16-2 {
		t.Fatalf("view capacity after install: %g", v2.Infras.Get("bisbis@mn").Capacity.CPU)
	}

	if err := lo.Remove(context.Background(), "svc1"); err != nil {
		t.Fatal(err)
	}
	if prog.delNFs != 1 || prog.delRule != prog.addRule {
		t.Fatalf("teardown not programmed: %+v", prog)
	}
	v3, _ := lo.View(context.Background())
	if v3.Infras.Get("bisbis@mn").Capacity.CPU != 16 {
		t.Fatalf("capacity not restored: %g", v3.Infras.Get("bisbis@mn").Capacity.CPU)
	}
	if err := lo.Remove(context.Background(), "svc1"); !errors.Is(err, unify.ErrUnknownService) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestLocalOrchestratorRejects(t *testing.T) {
	lo := leafDomain(t, "mn", "sap1", "border", &recordingProgrammer{})
	// Unknown view node pin.
	req := chainReq(t, "bad1", "sap1", "border", "fw")
	req.NFs.Get("bad1-nf").Host = "bisbis@elsewhere"
	if _, err := lo.Install(context.Background(), req); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("unknown pin: %v", err)
	}
	// Unsupported NF type.
	req2 := chainReq(t, "bad2", "sap1", "border", "quantum-fft")
	if _, err := lo.Install(context.Background(), req2); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("unsupported type: %v", err)
	}
	// Duplicate service ID.
	ok1 := chainReq(t, "dup", "sap1", "border", "fw")
	if _, err := lo.Install(context.Background(), ok1); err != nil {
		t.Fatal(err)
	}
	ok2 := chainReq(t, "dup", "sap1", "border", "fw")
	if _, err := lo.Install(context.Background(), ok2); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("duplicate id: %v", err)
	}
	// Missing request ID.
	empty := nffg.New("")
	if _, err := lo.Install(context.Background(), empty); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("missing id: %v", err)
	}
}

// TestBadQuantitiesRejected: a negative, NaN or infinite quantity would add
// capacity instead of consuming it, so the leaf and the resource orchestrator
// both refuse such a request at their Install entry and reserve nothing.
func TestBadQuantitiesRejected(t *testing.T) {
	ctx := context.Background()
	spoilers := map[string]func(g *nffg.NFFG){
		"negative CPU": func(g *nffg.NFFG) {
			for _, nf := range g.NFs.All() {
				nf.Demand.CPU = -100
			}
		},
		"NaN memory": func(g *nffg.NFFG) {
			for _, nf := range g.NFs.All() {
				nf.Demand.Mem = math.NaN()
			}
		},
		"negative hop bandwidth": func(g *nffg.NFFG) {
			for _, h := range g.Hops {
				h.Bandwidth = -500
			}
		},
		"infinite hop delay": func(g *nffg.NFFG) { g.Hops[0].Delay = math.Inf(1) },
		"negative requirement bandwidth": func(g *nffg.NFFG) {
			g.Reqs = append(g.Reqs, &nffg.Requirement{ID: "e2e", SrcNode: "sap1", DstNode: g.Hops[1].DstNode,
				HopIDs: []string{g.Hops[0].ID, g.Hops[1].ID}, Bandwidth: -1})
		},
	}
	lo := leafDomain(t, "mn", "sap1", "border", &recordingProgrammer{})
	ro, loA, loB := buildMdO(t, &recordingProgrammer{}, &recordingProgrammer{})
	for name, spoil := range spoilers {
		req := chainReq(t, "q", "sap1", "border", "fw")
		spoil(req)
		if _, err := lo.Install(ctx, req); !errors.Is(err, unify.ErrRejected) {
			t.Errorf("leaf, %s: %v", name, err)
		}
		req = chainReq(t, "q", "sap1", "b-ab", "fw")
		spoil(req)
		if _, err := ro.Install(ctx, req); !errors.Is(err, unify.ErrRejected) {
			t.Errorf("resource orchestrator, %s: %v", name, err)
		}
	}
	in := lo.Internal()
	if avail, err := in.AvailableResources("mn-n1"); err != nil || avail.CPU != 8 {
		t.Errorf("mn-n1 available %+v (%v), want its 8 CPU", avail, err)
	}
	if l := in.LinkByID("u/fwd"); l.Bandwidth != 100 {
		t.Errorf("u/fwd bandwidth %g, want 100", l.Bandwidth)
	}
	if n := len(lo.Services()) + len(ro.Services()) + len(loA.Services()) + len(loB.Services()); n != 0 {
		t.Errorf("%d services installed", n)
	}
}

func TestLocalOrchestratorProgrammerFailureLeavesState(t *testing.T) {
	prog := &recordingProgrammer{failPfx: "svcX"}
	lo := leafDomain(t, "mn", "sap1", "border", prog)
	req := chainReq(t, "svcX", "sap1", "border", "fw")
	if _, err := lo.Install(context.Background(), req); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("programming failure must reject: %v", err)
	}
	if len(lo.Services()) != 0 {
		t.Fatal("failed install must not be recorded")
	}
	v, _ := lo.View(context.Background())
	if v.Infras.Get("bisbis@mn").Capacity.CPU != 16 {
		t.Fatalf("capacity must be unchanged: %g", v.Infras.Get("bisbis@mn").Capacity.CPU)
	}
}

// buildMdO wires two leaf domains (shared border SAP "b-ab") under one
// resource orchestrator.
func buildMdO(t testing.TB, progA, progB Programmer) (*ResourceOrchestrator, *LocalOrchestrator, *LocalOrchestrator) {
	t.Helper()
	loA := leafDomain(t, "domA", "sap1", "b-ab", progA)
	loB := leafDomain(t, "domB", "sap2", "b-ab", progB)
	ro := NewResourceOrchestrator(Config{ID: "mdo"})
	if err := ro.Attach(context.Background(), loA); err != nil {
		t.Fatal(err)
	}
	if err := ro.Attach(context.Background(), loB); err != nil {
		t.Fatal(err)
	}
	return ro, loA, loB
}

func TestROAggregatesDomainViews(t *testing.T) {
	ro, _, _ := buildMdO(t, &recordingProgrammer{}, &recordingProgrammer{})
	dov := mustDoV(t, ro)
	if dov.Infras.Len() != 2 {
		t.Fatalf("DoV should hold one exported node per domain: %s", dov.Render())
	}
	if dov.SAPs.Len() != 3 { // sap1, sap2, shared b-ab
		t.Fatalf("SAPs: %v", dov.SAPIDs())
	}
	tg := dov.InfraTopo()
	if !tg.Connected("bisbis@domA", "bisbis@domB") {
		t.Fatal("domains must stitch at the border SAP")
	}
	v, err := ro.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Infras.Len() != 2 {
		t.Fatalf("northbound view: %s", v.Render())
	}
}

func TestROInstallsAcrossDomains(t *testing.T) {
	progA, progB := &recordingProgrammer{}, &recordingProgrammer{}
	ro, loA, loB := buildMdO(t, progA, progB)

	// Chain sap1 (domA) -> fw -> nat -> sap2 (domB): must span both domains.
	req, err := nffg.NewBuilder("svc").
		SAP("sap1").SAP("sap2").
		NF("fw", "fw", 2, res(2, 512)).
		NF("nat", "nat", 2, res(2, 512)).
		Chain("svc", 10, 0, "sap1", "fw", "nat", "sap2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	receipt, err := ro.Install(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Both children must have received sub-services.
	if len(receipt.Children) != 2 {
		t.Fatalf("children receipts: %v", receipt.Children)
	}
	if len(loA.Services()) != 1 || len(loB.Services()) != 1 {
		t.Fatalf("sub-services: A=%v B=%v", loA.Services(), loB.Services())
	}
	if progA.addNFs+progB.addNFs != 2 {
		t.Fatalf("NFs programmed: %d+%d", progA.addNFs, progB.addNFs)
	}
	if progA.addRule == 0 || progB.addRule == 0 {
		t.Fatalf("rules programmed: %d/%d", progA.addRule, progB.addRule)
	}
	// The RO's own services.
	if got := ro.Services(); len(got) != 1 || got[0] != "svc" {
		t.Fatalf("RO services: %v", got)
	}

	// Removal propagates.
	if err := ro.Remove(context.Background(), "svc"); err != nil {
		t.Fatal(err)
	}
	if len(loA.Services())+len(loB.Services()) != 0 {
		t.Fatal("children should be cleaned up")
	}
	if progA.delNFs+progB.delNFs != 2 {
		t.Fatalf("teardown: %d+%d", progA.delNFs, progB.delNFs)
	}
}

func TestRORollsBackOnChildFailure(t *testing.T) {
	// domB rejects everything: the sub-install on domA must be rolled back.
	progB := &recordingProgrammer{failPfx: "svc"}
	ro, loA, loB := buildMdO(t, &recordingProgrammer{}, progB)
	req, err := nffg.NewBuilder("svc").
		SAP("sap1").SAP("sap2").
		NF("svc-fw", "fw", 2, res(2, 512)).
		NF("svc-nat", "nat", 2, res(2, 512)).
		Chain("svc", 10, 0, "sap1", "svc-fw", "svc-nat", "sap2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// Force at least one NF into domB so its failing programmer triggers.
	req.NFs.Get("svc-nat").Host = "bisbis@domB"
	if _, err := ro.Install(context.Background(), req); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("install should fail: %v", err)
	}
	if len(loA.Services())+len(loB.Services()) != 0 {
		t.Fatalf("rollback incomplete: A=%v B=%v", loA.Services(), loB.Services())
	}
	if len(ro.Services()) != 0 {
		t.Fatal("RO must not record failed service")
	}
	// Capacity intact everywhere.
	vA, _ := loA.View(context.Background())
	if vA.Infras.Get("bisbis@domA").Capacity.CPU != 16 {
		t.Fatalf("domA capacity leaked: %g", vA.Infras.Get("bisbis@domA").Capacity.CPU)
	}
}

func TestROPinnedToDomainNode(t *testing.T) {
	ro, _, loB := buildMdO(t, &recordingProgrammer{}, &recordingProgrammer{})
	req := chainReq(t, "pinned", "sap1", "sap2", "fw")
	req.NFs.Get("pinned-nf").Host = "bisbis@domB" // force placement in domain B
	receipt, err := ro.Install(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if receipt.Placements["pinned-nf"] != "bisbis@domB" {
		t.Fatalf("pin not honored: %v", receipt.Placements)
	}
	if len(loB.Services()) != 1 {
		t.Fatal("domB should host the sub-service")
	}
}

func TestRORecursiveStack(t *testing.T) {
	// Three levels: leaf domains -> MdO -> top orchestrator.
	ro, _, _ := buildMdO(t, &recordingProgrammer{}, &recordingProgrammer{})
	top := NewResourceOrchestrator(Config{ID: "top", Virtualizer: SingleBiSBiS{NodeID: "bisbis@top"}})
	if err := top.Attach(context.Background(), ro); err != nil {
		t.Fatal(err)
	}
	v, err := top.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Infras.Len() != 1 {
		t.Fatalf("top view: %s", v.Render())
	}
	req := chainReq(t, "deep", "sap1", "sap2", "nat")
	receipt, err := top.Install(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// The receipt chain must descend: top -> mdo -> leaf.
	mdoReceipt, ok := receipt.Children["mdo"]
	if !ok {
		t.Fatalf("no mdo receipt: %+v", receipt.Children)
	}
	if len(mdoReceipt.Children) == 0 {
		t.Fatalf("mdo receipt has no leaf children: %+v", mdoReceipt)
	}
	if err := top.Remove(context.Background(), "deep"); err != nil {
		t.Fatal(err)
	}
	if len(ro.Services()) != 0 {
		t.Fatal("recursive removal incomplete")
	}
}

func TestRODuplicateAndUnknown(t *testing.T) {
	ro, _, _ := buildMdO(t, &recordingProgrammer{}, &recordingProgrammer{})
	req := chainReq(t, "s1", "sap1", "sap2", "fw")
	if _, err := ro.Install(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	dup := chainReq(t, "s1", "sap1", "sap2", "fw")
	if _, err := ro.Install(context.Background(), dup); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("duplicate: %v", err)
	}
	if err := ro.Remove(context.Background(), "nope"); !errors.Is(err, unify.ErrUnknownService) {
		t.Fatalf("unknown remove: %v", err)
	}
}

func TestROCapacityExhaustion(t *testing.T) {
	ro, _, _ := buildMdO(t, &recordingProgrammer{}, &recordingProgrammer{})
	// Each domain has 16 CPU (2 nodes x 8); install chains until rejection.
	installed := 0
	for i := 0; i < 40; i++ {
		req := chainReq(t, fmt.Sprintf("s%02d", i), "sap1", "sap2", "fw")
		// Distinct SAP pairs would be needed to avoid ingress rule conflicts;
		// here every chain shares SAPs, so expect an eventual conflict or
		// capacity rejection — both are admission control.
		if _, err := ro.Install(context.Background(), req); err != nil {
			if !errors.Is(err, unify.ErrRejected) {
				t.Fatalf("unexpected error kind: %v", err)
			}
			break
		}
		installed++
	}
	if installed == 0 {
		t.Fatal("at least one service must fit")
	}
	if installed >= 40 {
		t.Fatal("admission control never triggered")
	}
}
