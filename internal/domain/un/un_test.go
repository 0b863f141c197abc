package un

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
)

func res(cpu, mem float64) nffg.Resources { return nffg.Resources{CPU: cpu, Mem: mem, Storage: cpu} }

func substrate(t testing.TB) *nffg.NFFG {
	t.Helper()
	g, err := nffg.NewBuilder("un-sub").
		BiSBiS("un-lsi0", "un", 4, res(16, 16384), "firewall", "dpi", "nat", "compress", "encrypt").
		SAP("sapU").SAP("sapV").
		Link("u1", "sapU", "1", "un-lsi0", "1", 10000, 0.05).
		Link("u2", "un-lsi0", "2", "sapV", "1", 10000, 0.05).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newUN(t *testing.T, accelerated bool) *Domain {
	t.Helper()
	d, err := New(Config{Substrate: substrate(t), Accelerated: accelerated})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func request(t testing.TB, id, nfType string) *nffg.NFFG {
	t.Helper()
	g, err := nffg.NewBuilder(id).
		SAP("sapU").SAP("sapV").
		NF(nffg.ID(id+"-nf"), nfType, 2, res(2, 2048)).
		Chain(id, 100, 0, "sapU", nffg.ID(id+"-nf"), "sapV").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRuntimeLifecycle(t *testing.T) {
	d := newUN(t, false)
	rt := d.Runtime()
	if len(rt.images) == 0 {
		t.Fatal("catalogue images should be preloaded")
	}
	c, err := rt.Create("c1", "nf/firewall:latest", "un-lsi0")
	if err != nil {
		t.Fatal(err)
	}
	if c.State != StateCreated {
		t.Fatalf("state: %s", c.State)
	}
	if _, err := rt.Create("c1", "nf/firewall:latest", "un-lsi0"); err == nil {
		t.Fatal("duplicate create must fail")
	}
	if _, err := rt.Create("c2", "nf/bogus:latest", "un-lsi0"); !errors.Is(err, ErrNoImage) {
		t.Fatalf("bad image: %v", err)
	}
	if _, err := rt.Start("c1", []string{"1", "2"}); err != nil {
		t.Fatal(err)
	}
	got, _ := rt.Get("c1")
	if got.State != StateRunning || len(got.Ports) != 2 {
		t.Fatalf("after start: %+v", got)
	}
	// Running containers cannot be removed, must stop first.
	if err := rt.Remove("c1"); !errors.Is(err, ErrBadState) {
		t.Fatalf("remove running: %v", err)
	}
	if err := rt.Stop("c1"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Stop("c1"); !errors.Is(err, ErrBadState) {
		t.Fatalf("double stop: %v", err)
	}
	if err := rt.Remove("c1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Get("c1"); !errors.Is(err, ErrNoContainer) {
		t.Fatalf("after remove: %v", err)
	}
}

func TestInstallRunsContainer(t *testing.T) {
	d := newUN(t, true)
	receipt, err := d.Install(context.Background(), request(t, "svc1", "compress"))
	if err != nil {
		t.Fatal(err)
	}
	if receipt.Placements["svc1-nf"] != "un-lsi0" {
		t.Fatalf("placement: %v", receipt.Placements)
	}
	cs := d.Runtime().List()
	if len(cs) != 1 || cs[0].State != StateRunning || cs[0].Image != "nf/compress:latest" {
		t.Fatalf("containers: %+v", cs)
	}
}

func TestEndToEndThroughContainer(t *testing.T) {
	d := newUN(t, true)
	if _, err := d.Install(context.Background(), request(t, "svc1", "compress")); err != nil {
		t.Fatal(err)
	}
	sapU, _ := d.Net().SAP("sapU")
	sapV, _ := d.Net().SAP("sapV")
	sapU.Send("sapV", 1000)
	d.Net().Eng.RunToIdle()
	got := sapV.Received()
	if len(got) != 1 {
		t.Fatalf("deliveries: %d", len(got))
	}
	trace := strings.Join(got[0].Trace, ",")
	if !strings.Contains(trace, "docker:compress:svc1-nf") {
		t.Fatalf("traffic must traverse the container: %s", trace)
	}
	if got[0].Size >= 1000 {
		t.Fatalf("compressor should shrink the packet: %d", got[0].Size)
	}
}

func TestRemoveStopsContainer(t *testing.T) {
	d := newUN(t, false)
	if _, err := d.Install(context.Background(), request(t, "svc1", "nat")); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove(context.Background(), "svc1"); err != nil {
		t.Fatal(err)
	}
	if cs := d.Runtime().List(); len(cs) != 0 {
		t.Fatalf("containers should be gone: %+v", cs)
	}
	sw, _ := d.Net().Switch("un-lsi0")
	if sw.Table.Len() != 0 {
		t.Fatal("LSI rules should be gone")
	}
}

func TestAccelerationReducesLatency(t *testing.T) {
	run := func(accel bool) float64 {
		d, err := New(Config{ID: "bench-un", Substrate: substrate(t), Accelerated: accel})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Install(context.Background(), request(t, "svc1", "nat")); err != nil {
			t.Fatal(err)
		}
		sapU, _ := d.Net().SAP("sapU")
		sapV, _ := d.Net().SAP("sapV")
		sapU.Send("sapV", 100)
		d.Net().Eng.RunToIdle()
		lat := sapV.Latencies()
		if len(lat) != 1 {
			t.Fatal("packet lost")
		}
		return lat[0]
	}
	slow := run(false)
	fast := run(true)
	if fast >= slow {
		t.Fatalf("accelerated LSI should be faster: %g vs %g", fast, slow)
	}
}

// A delta whose container fails to start is undone: the containers it
// created are stopped and removed, its rules leave the LSI, and the same
// request installs once the runtime works again.
func TestFailedStartIsUndone(t *testing.T) {
	d := newUN(t, false)
	rt := d.Runtime()
	const image = "nf/dpi:latest"
	rt.mu.Lock()
	good := rt.images[image]
	rt.images[image] = Image{Name: image, NFType: "no-such-type"} // Create succeeds, Start fails
	rt.mu.Unlock()
	req := nffg.NewBuilder("svc1").
		SAP("sapU").SAP("sapV").
		NF("svc1-fw", "firewall", 2, res(2, 2048)).
		NF("svc1-dpi", "dpi", 2, res(2, 2048)).
		Chain("svc1", 100, 0, "sapU", "svc1-fw", "svc1-dpi", "sapV").
		MustBuild()
	if _, err := d.Install(context.Background(), req); err == nil || !strings.Contains(err.Error(), "start svc1-dpi") {
		t.Fatalf("want the start of svc1-dpi to fail the install, got %v", err)
	}
	if cs := rt.List(); len(cs) != 0 {
		t.Fatalf("containers left after the failed install: %+v", cs)
	}
	if nfs := d.Net().RunningNFs(); len(nfs) != 0 {
		t.Fatalf("NFs running after the failed install: %v", nfs)
	}
	if sw, _ := d.Net().Switch("un-lsi0"); sw.Table.Len() != 0 {
		t.Fatalf("%d rules left on the LSI", sw.Table.Len())
	}

	rt.mu.Lock()
	rt.images[image] = good
	rt.mu.Unlock()
	if _, err := d.Install(context.Background(), req.Copy()); err != nil {
		t.Fatalf("retry of the failed install: %v", err)
	}
	if cs := rt.List(); len(cs) != 2 || cs[0].State != StateRunning || cs[1].State != StateRunning {
		t.Fatalf("containers after the retry: %+v", cs)
	}
}
