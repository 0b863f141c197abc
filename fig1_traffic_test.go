package escape

import (
	"context"
	"strings"
	"testing"

	"github.com/unify-repro/escape/internal/dataplane"
	"github.com/unify-repro/escape/internal/domain/emunet"
)

// TestFig1BidirectionalChains deploys forward and reverse chains between the
// same SAP pair concurrently: distinct destinations mean distinct ingress
// classifiers, so both coexist.
func TestFig1BidirectionalChains(t *testing.T) {
	sys := newSys(t)
	fwd := NewBuilder("fwd").
		SAP("sap1").SAP("sap2").
		NF("fwd-fw", "firewall", 2, Resources{CPU: 2, Mem: 1024, Storage: 2}).
		Chain("fwd", 20, 0, "sap1", "fwd-fw", "sap2").
		MustBuild()
	rev := NewBuilder("rev").
		SAP("sap1").SAP("sap2").
		NF("rev-nat", "nat", 2, Resources{CPU: 2, Mem: 1024, Storage: 2}).
		Chain("rev", 20, 0, "sap2", "rev-nat", "sap1").
		MustBuild()
	if _, err := sys.Service.Submit(context.Background(), fwd); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Service.Submit(context.Background(), rev); err != nil {
		t.Fatalf("reverse chain should coexist: %v", err)
	}
	sap1, _ := sys.SAP1()
	sap2, _ := sys.SAP2()
	sap1.Send("sap2", 500)
	sap2.Send("sap1", 500)
	sys.Engine.RunToIdle()
	if n := len(sap2.Received()); n != 1 {
		t.Fatalf("forward deliveries: %d", n)
	}
	if n := len(sap1.Received()); n != 1 {
		t.Fatalf("reverse deliveries: %d", n)
	}
	fTrace := strings.Join(sap2.Received()[0].Trace, ",")
	rTrace := strings.Join(sap1.Received()[0].Trace, ",")
	if !strings.Contains(fTrace, "fwd-fw") || strings.Contains(fTrace, "rev-nat") {
		t.Fatalf("forward trace wrong: %s", fTrace)
	}
	if !strings.Contains(rTrace, "rev-nat") || strings.Contains(rTrace, "fwd-fw") {
		t.Fatalf("reverse trace wrong: %s", rTrace)
	}
}

// TestFig1AmbiguousChainsRejected: two chains with the same (ingress SAP,
// destination SAP) pair have indistinguishable classifiers and must be
// rejected as a conflict, not silently merged.
func TestFig1AmbiguousChainsRejected(t *testing.T) {
	sys := newSys(t)
	mk := func(id string) *NFFG {
		return NewBuilder(id).
			SAP("sap1").SAP("sap2").
			NF(ID(id+"-fw"), "firewall", 2, Resources{CPU: 1, Mem: 512, Storage: 1}).
			Chain(id, 5, 0, "sap1", ID(id+"-fw"), "sap2").
			MustBuild()
	}
	if _, err := sys.Service.Submit(context.Background(), mk("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Service.Submit(context.Background(), mk("second")); err == nil {
		t.Fatal("ambiguous second chain must be rejected")
	}
	// The failed install must not leave debris behind.
	if got := len(sys.MdO.Services()); got != 1 {
		t.Fatalf("services after rejection: %d", got)
	}
	if nfs := sys.Mininet.Net().RunningNFs(); len(nfs) != 1 {
		t.Fatalf("leaked NFs: %v", nfs)
	}
}

// TestFig1SnapshotAndHopHealth verifies the monitoring slice: after traffic,
// every hop of the deployed chain reports activity.
func TestFig1SnapshotAndHopHealth(t *testing.T) {
	sys := newSys(t)
	chain, err := sys.DemoChain("mon", 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Service.Submit(context.Background(), chain); err != nil {
		t.Fatal(err)
	}
	sap1, _ := sys.SAP1()
	for i := 0; i < 8; i++ {
		sap1.Send("sap2", 800)
	}
	sys.Engine.RunToIdle()
	snap := sys.Snapshot()
	// Rule IDs embed the hop they steer: "<hop>@<node>", or "<hop>#<k>@<node>"
	// when a hop is split.
	act := map[string]uint64{}
	for _, f := range snap.Flows {
		hop, _, _ := strings.Cut(f.RuleID, "@")
		hop, _, _ = strings.Cut(hop, "#")
		act[hop] += f.Packets
	}
	for _, h := range chain.Hops {
		if act[h.ID] == 0 {
			t.Fatalf("hop %s saw no traffic: %v", h.ID, act)
		}
	}
	// NF processing counters present for all three NFs.
	if len(snap.NFs) != 3 {
		t.Fatalf("NF counters: %+v", snap.NFs)
	}
}

// TestFig1CapacityAccounting verifies bandwidth bookkeeping across
// install/remove cycles: after removal, the DoV matches its pristine state.
func TestFig1CapacityAccounting(t *testing.T) {
	sys := newSys(t)
	before, err := sys.MdO.DoV()
	if err != nil {
		t.Fatal(err)
	}
	chain, err := sys.DemoChain("acct", 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Service.Submit(context.Background(), chain); err != nil {
		t.Fatal(err)
	}
	during, err := sys.MdO.DoV()
	if err != nil {
		t.Fatal(err)
	}
	// Some link lost 100 Mbit/s while deployed.
	lost := false
	for _, l := range during.Links {
		if orig := before.LinkByID(l.ID); orig != nil && l.Bandwidth < orig.Bandwidth {
			lost = true
		}
	}
	if !lost {
		t.Fatal("no bandwidth reserved while deployed")
	}
	if err := sys.Service.Remove(context.Background(), "acct"); err != nil {
		t.Fatal(err)
	}
	after, err := sys.MdO.DoV()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range after.Links {
		orig := before.LinkByID(l.ID)
		if orig == nil {
			t.Fatalf("link %s appeared from nowhere", l.ID)
		}
		if l.Bandwidth != orig.Bandwidth {
			t.Fatalf("link %s bandwidth not restored: %g vs %g", l.ID, l.Bandwidth, orig.Bandwidth)
		}
	}
	if after.NFs.Len() != 0 {
		t.Fatalf("NFs left in DoV: %v", after.NFIDs())
	}
}

// TestFig1TransparentMdOView runs the stack with a transparent MdO view: the
// service layer sees the per-domain aggregates and pre-maps placements
// itself (control instead of delegation).
func TestFig1TransparentMdOView(t *testing.T) {
	sys, err := NewFig1System(Fig1Options{MdOVirtualizer: DomainView})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	view, err := sys.Service.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if view.Infras.Len() != 4 {
		t.Fatalf("domain view should show 4 aggregates: %s", view.Render())
	}
	g := NewBuilder("ctl").
		SAP("sap1").SAP("sap2").
		NF("ctl-nat", "nat", 2, Resources{CPU: 2, Mem: 1024, Storage: 2}).
		Chain("ctl", 10, 0, "sap1", "ctl-nat", "sap2").
		MustBuild()
	req, err := sys.Service.Submit(context.Background(), g)
	if err != nil {
		t.Fatalf("submit: %v (%s)", err, req.Error)
	}
	sap1, _ := sys.SAP1()
	sap2, _ := sys.SAP2()
	sap1.Send("sap2", 300)
	sys.Engine.RunToIdle()
	if len(sap2.Received()) != 1 {
		t.Fatal("traffic failed under transparent MdO view")
	}
}

// TestFig1ChainAfterNFChurn is the regression for NF switch ports running past
// OpenFlow's 16 bits: after 40 000 NFs have come and gone on every switch of
// the three domains that run NFs, a Figure-1 chain still carries its packet.
func TestFig1ChainAfterNFChurn(t *testing.T) {
	sys := newSys(t)
	for _, n := range []*emunet.Net{sys.Mininet.Net(), sys.OpenStack.Cloud().Net(), sys.UN.Net()} {
		for _, sw := range n.SwitchIDs() {
			for i := 0; i < 40000; i++ {
				if _, err := n.StartNF("churn", sw, []string{"1", "2"}, dataplane.NewPipe(0, "churn")); err != nil {
					t.Fatal(err)
				}
				if err := n.StopNF("churn"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	chain, err := sys.DemoChain("demo", 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Service.Submit(context.Background(), chain); err != nil {
		t.Fatal(err)
	}
	sap1, _ := sys.SAP1()
	sap2, _ := sys.SAP2()
	p := sap1.Send("sap2", 1000)
	sys.Engine.RunToIdle()
	got := sap2.Received()
	if len(got) != 1 {
		t.Fatalf("delivery failed (dropped: %q)", p.Dropped)
	}
	for _, nf := range []string{"demo-fw", "demo-dpi", "demo-comp"} {
		if trace := strings.Join(got[0].Trace, ","); !strings.Contains(trace, nf) {
			t.Fatalf("trace missing %s: %s", nf, trace)
		}
	}
}
