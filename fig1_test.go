package escape

import (
	"context"
	"strings"
	"testing"
)

func newSys(t testing.TB) *Fig1System {
	t.Helper()
	sys, err := NewFig1System(Fig1Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func TestFig1SystemBringUp(t *testing.T) {
	sys := newSys(t)
	// DoV: 4 domain views merged.
	dov, err := sys.MdO.DoV()
	if err != nil {
		t.Fatal(err)
	}
	if dov.Infras.Len() != 4 {
		t.Fatalf("DoV should hold 4 exported views: %s", dov.Render())
	}
	// Stitching: sap1 side must reach sap2 side.
	tg := dov.InfraTopo()
	if !tg.Connected("bisbis@mininet", "bisbis@un") {
		t.Fatalf("domains not stitched:\n%s", dov.Render())
	}
	// MdO northbound: a single BiS-BiS (full delegation view).
	v, err := sys.MdO.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Infras.Len() != 1 {
		t.Fatalf("MdO view: %s", v.Render())
	}
	// User SAPs visible, border SAPs too (they are still SAPs of the view).
	if _, ok := v.SAPs.Lookup("sap1"); !ok {
		t.Fatalf("sap1 missing from view: %v", v.SAPIDs())
	}
	if _, ok := v.SAPs.Lookup("sap2"); !ok {
		t.Fatalf("sap2 missing from view: %v", v.SAPIDs())
	}
}

func TestFig1EndToEndDeploymentAndTraffic(t *testing.T) {
	sys := newSys(t)
	chain, err := sys.DemoChain("demo", 50)
	if err != nil {
		t.Fatal(err)
	}
	req, err := sys.Service.Submit(context.Background(), chain)
	if err != nil {
		t.Fatalf("submit: %v (state %s: %s)", err, req.State, req.Error)
	}
	// Placements: one NF per intended domain.
	mdoReceipt := req.Receipt
	if mdoReceipt == nil {
		t.Fatal("no receipt")
	}
	if got := mdoReceipt.Placements["demo-fw"]; got != "bisbis@mininet" {
		t.Fatalf("fw placement: %v", mdoReceipt.Placements)
	}
	if got := mdoReceipt.Placements["demo-dpi"]; got != "bisbis@openstack" {
		t.Fatalf("dpi placement: %v", mdoReceipt.Placements)
	}
	if got := mdoReceipt.Placements["demo-comp"]; got != "bisbis@un" {
		t.Fatalf("comp placement: %v", mdoReceipt.Placements)
	}
	// Concrete instantiation in each execution environment.
	if nfs := sys.Mininet.Net().RunningNFs(); len(nfs) != 1 || nfs[0] != "demo-fw" {
		t.Fatalf("click NFs: %v", nfs)
	}
	if srvs := sys.OpenStack.Cloud().Servers(); len(srvs) != 1 || srvs[0].ID != "demo-dpi" {
		t.Fatalf("VMs: %+v", srvs)
	}
	if cs := sys.UN.Runtime().List(); len(cs) != 1 || cs[0].ID != "demo-comp" {
		t.Fatalf("containers: %+v", cs)
	}

	// Real traffic end to end across all four domains.
	sap1, err := sys.SAP1()
	if err != nil {
		t.Fatal(err)
	}
	sap2, err := sys.SAP2()
	if err != nil {
		t.Fatal(err)
	}
	p := sap1.Send("sap2", 1000)
	p.Payload = []byte("hello unify")
	sys.Engine.RunToIdle()
	got := sap2.Received()
	if len(got) != 1 {
		t.Fatalf("delivery failed (dropped: %q)", p.Dropped)
	}
	trace := strings.Join(got[0].Trace, ",")
	for _, want := range []string{
		"click:firewall:demo-fw",    // Click process in Mininet
		"vm:dpi:demo-dpi",           // VM in OpenStack
		"docker:compress:demo-comp", // container on the UN
	} {
		if !strings.Contains(trace, want) {
			t.Fatalf("trace missing %q:\n%s", want, trace)
		}
	}
	// The SDN transit switches are on the path.
	if !strings.Contains(trace, "sdn-s1") {
		t.Fatalf("trace should cross the legacy SDN domain: %s", trace)
	}
	// Compression happened.
	if got[0].Size >= 1000 {
		t.Fatalf("compressor had no effect: %d", got[0].Size)
	}

	// DPI drops attack payloads mid-chain.
	atk := sap1.Send("sap2", 500)
	atk.Payload = []byte("attack payload")
	sys.Engine.RunToIdle()
	if len(sap2.Received()) != 1 {
		t.Fatal("attack payload should have been dropped by the VM DPI")
	}

	// Teardown propagates to every domain.
	if err := sys.Service.Remove(context.Background(), "demo"); err != nil {
		t.Fatal(err)
	}
	if len(sys.Mininet.Net().RunningNFs()) != 0 {
		t.Fatal("click NF not stopped")
	}
	if len(sys.OpenStack.Cloud().Servers()) != 0 {
		t.Fatal("VM not deleted")
	}
	if len(sys.UN.Runtime().List()) != 0 {
		t.Fatal("container not removed")
	}
}

func TestFig1FreePlacementChain(t *testing.T) {
	// Without pins the MdO places NFs wherever feasible; the chain still
	// works end to end.
	sys := newSys(t)
	g, err := NewBuilder("free").
		SAP("sap1").SAP("sap2").
		NF("free-nat", "nat", 2, Resources{CPU: 2, Mem: 1024, Storage: 2}).
		Chain("free", 20, 0, "sap1", "free-nat", "sap2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Service.Submit(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	sap1, _ := sys.SAP1()
	sap2, _ := sys.SAP2()
	sap1.Send("sap2", 400)
	sys.Engine.RunToIdle()
	got := sap2.Received()
	if len(got) != 1 {
		t.Fatal("free-placement chain should carry traffic")
	}
	trace := strings.Join(got[0].Trace, ",")
	if !strings.Contains(trace, ":nat:free-nat") {
		t.Fatalf("NAT missing from trace: %s", trace)
	}
}

func TestFig1RecursiveReceipts(t *testing.T) {
	sys := newSys(t)
	chain, err := sys.DemoChain("rec", 10)
	if err != nil {
		t.Fatal(err)
	}
	req, err := sys.Service.Submit(context.Background(), chain)
	if err != nil {
		t.Fatal(err)
	}
	// The MdO receipt must contain child receipts from each involved domain.
	if len(req.Receipt.Children) < 3 {
		t.Fatalf("expected child receipts from >=3 domains: %v", req.Receipt.Children)
	}
	// Leaf receipts resolve view-node placements to real internal nodes.
	mn := req.Receipt.Children["mininet"]
	if mn == nil {
		t.Fatal("no mininet child receipt")
	}
	host := mn.Placements["rec-fw"]
	if !strings.HasPrefix(string(host), "mn-s") {
		t.Fatalf("leaf placement should be an internal switch: %v", mn.Placements)
	}
}
