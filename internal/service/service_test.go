package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

func res(cpu, mem float64) nffg.Resources { return nffg.Resources{CPU: cpu, Mem: mem, Storage: cpu} }

// leaf builds a single-domain local orchestrator with user SAPs sapA/sapB.
func leaf(t testing.TB, virt core.Virtualizer) *core.LocalOrchestrator {
	t.Helper()
	sub := nffg.NewBuilder("dom").
		BiSBiS("n1", "dom", 4, res(8, 4096), "fw", "dpi").
		BiSBiS("n2", "dom", 4, res(8, 4096), "fw", "nat").
		SAP("sapA").SAP("sapB").
		Link("u1", "sapA", "1", "n1", "1", 100, 1).
		Link("i", "n1", "2", "n2", "1", 1000, 1).
		Link("u2", "n2", "2", "sapB", "1", 100, 1).
		MustBuild()
	lo, err := core.NewLocalOrchestrator(core.LocalConfig{ID: "dom", Substrate: sub, Virtualizer: virt})
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

func sg(t testing.TB, id string) *nffg.NFFG {
	t.Helper()
	g, err := nffg.NewBuilder(id).
		SAP("sapA").SAP("sapB").
		NF(nffg.ID(id+"-fw"), "fw", 2, res(2, 512)).
		Chain(id, 10, 0, "sapA", nffg.ID(id+"-fw"), "sapB").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSubmitDelegatesOnSingleBiSBiS(t *testing.T) {
	lo := leaf(t, nil) // default single-BiSBiS export
	so := NewOrchestrator(lo, nil)
	receipt, err := so.Submit(context.Background(), sg(t, "s1"))
	if err != nil {
		t.Fatal(err)
	}
	if receipt == nil || len(receipt.Placements) != 1 {
		t.Fatalf("receipt: %+v", receipt)
	}
	// The NF must have landed on a real internal node.
	host := receipt.Placements["s1-fw"]
	if host != "n1" && host != "n2" {
		t.Fatalf("delegated placement should resolve internally, got %s", host)
	}
}

func TestSubmitPremapsOnTransparentView(t *testing.T) {
	lo := leaf(t, core.Transparent{})
	so := NewOrchestrator(lo, nil)
	if _, err := so.Submit(context.Background(), sg(t, "s2")); err != nil {
		t.Fatal(err)
	}
	if got := lo.Services(); len(got) != 1 || got[0] != "s2" {
		t.Fatalf("lower layer services: %v", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	lo := leaf(t, nil)
	so := NewOrchestrator(lo, nil)
	// No ID.
	bad := nffg.New("")
	if _, err := so.Submit(context.Background(), bad); !errors.Is(err, ErrInvalid) {
		t.Fatalf("no id: %v", err)
	}
	// Contains infrastructure.
	withInfra := sg(t, "s3")
	_ = withInfra.AddInfra(&nffg.Infra{ID: "rogue"})
	if _, err := so.Submit(context.Background(), withInfra); !errors.Is(err, ErrInvalid) {
		t.Fatalf("infra in SG: %v", err)
	}
	// No hops.
	noHops := nffg.NewBuilder("s4").SAP("sapA").MustBuild()
	if _, err := so.Submit(context.Background(), noHops); !errors.Is(err, ErrInvalid) {
		t.Fatalf("no hops: %v", err)
	}
	// Orphan NF.
	orphan := sg(t, "s5")
	_ = orphan.AddNF(&nffg.NF{ID: "lost", FunctionalType: "fw", Ports: []*nffg.Port{{ID: "1"}}})
	if _, err := so.Submit(context.Background(), orphan); !errors.Is(err, ErrInvalid) {
		t.Fatalf("orphan NF: %v", err)
	}
	// Unknown SAP.
	g := nffg.NewBuilder("s6").
		SAP("ghost").SAP("sapB").
		NF("s6-fw", "fw", 2, res(1, 128)).
		Chain("s6", 1, 0, "ghost", "s6-fw", "sapB").
		MustBuild()
	if _, err := so.Submit(context.Background(), g); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unknown SAP: %v", err)
	}
	// A failed Submit leaves nothing booked.
	if n := booked(so); n != 0 {
		t.Fatalf("%d services booked after failed submits", n)
	}
}

// booked counts the services in the book.
func booked(so *Orchestrator) int {
	so.mu.Lock()
	defer so.mu.Unlock()
	return len(so.services)
}

func TestSubmitDuplicate(t *testing.T) {
	lo := leaf(t, nil)
	so := NewOrchestrator(lo, nil)
	if _, err := so.Submit(context.Background(), sg(t, "dup")); err != nil {
		t.Fatal(err)
	}
	if _, err := so.Submit(context.Background(), sg(t, "dup")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
}

func TestRemoveLifecycle(t *testing.T) {
	lo := leaf(t, nil)
	so := NewOrchestrator(lo, nil)
	if _, err := so.Submit(context.Background(), sg(t, "r1")); err != nil {
		t.Fatal(err)
	}
	if err := so.Remove(context.Background(), "r1"); err != nil {
		t.Fatal(err)
	}
	if len(lo.Services()) != 0 {
		t.Fatal("lower layer should be clean")
	}
	for _, id := range []string{"r1", "ghost"} {
		if err := so.Remove(context.Background(), id); !errors.Is(err, ErrUnknown) {
			t.Fatalf("remove %s: %v", id, err)
		}
	}
	// A request that never deployed is not in the book either.
	bad := sg(t, "r2")
	_ = bad.AddInfra(&nffg.Infra{ID: "rogue"})
	if _, err := so.Submit(context.Background(), bad); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad submit: %v", err)
	}
	if err := so.Remove(context.Background(), "r2"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("remove of a failed request: %v", err)
	}
}

// TestRemoveForgetsService: submit/remove cycles with unique IDs leave the
// book empty, and a removed ID can be submitted again.
func TestRemoveForgetsService(t *testing.T) {
	lo := leaf(t, nil)
	so := NewOrchestrator(lo, nil)
	ctx := context.Background()
	for i := range 50 {
		id := fmt.Sprintf("c%d", i)
		if _, err := so.Submit(ctx, sg(t, id)); err != nil {
			t.Fatal(err)
		}
		if err := so.Remove(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if n := booked(so); n != 0 {
		t.Fatalf("%d services booked after every remove", n)
	}
	if _, err := so.Submit(ctx, sg(t, "c0")); err != nil {
		t.Fatalf("resubmit of a removed ID: %v", err)
	}
	if n := booked(so); n != 1 {
		t.Fatalf("%d services booked, want 1", n)
	}
}

// TestCapacityRejectionUnbooksID: a capacity-rejected ID can be submitted
// again, and deploys once it fits.
func TestCapacityRejectionUnbooksID(t *testing.T) {
	lo := leaf(t, nil)
	so := NewOrchestrator(lo, nil)
	big := nffg.NewBuilder("big").
		SAP("sapA").SAP("sapB").
		NF("big-fw", "fw", 2, res(1000, 9e6)).
		Chain("big", 10, 0, "sapA", "big-fw", "sapB").
		MustBuild()
	_, err := so.Submit(context.Background(), big)
	if !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("capacity rejection: %v", err)
	}
	if _, err := so.Submit(context.Background(), big); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("second capacity rejection: %v", err)
	}
	big.NFs.Get("big-fw").Demand = res(2, 512)
	if _, err := so.Submit(context.Background(), big); err != nil {
		t.Fatalf("resubmit that fits: %v", err)
	}
}

// gateLayer is a unify.Layer whose Install blocks until released, for
// observing in-flight deployments. It records the tenant each install
// carried.
type gateLayer struct {
	view   *nffg.NFFG
	gate   chan struct{}
	tenant string
}

func (g *gateLayer) ID() string                               { return "gate" }
func (g *gateLayer) View(context.Context) (*nffg.NFFG, error) { return g.view.Copy(), nil }
func (g *gateLayer) Remove(context.Context, string) error     { return nil }
func (g *gateLayer) Services() []string                       { return nil }
func (g *gateLayer) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	g.tenant = unify.MetaFrom(ctx).Tenant
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &unify.Receipt{ServiceID: req.ID}, nil
}

// TestRemoveInFlightAsync: removing a service whose Submit has not finished
// is refused (ErrBusy) instead of silently racing the deploy, and the
// submitter's tenant reaches the layer below.
func TestRemoveInFlightAsync(t *testing.T) {
	view := nffg.NewBuilder("v").
		BiSBiS("n1", "d", 4, res(8, 4096), "fw").
		SAP("sapA").SAP("sapB").
		Link("u1", "sapA", "1", "n1", "1", 100, 1).
		Link("u2", "n1", "2", "sapB", "1", 100, 1).
		MustBuild()
	south := &gateLayer{view: view, gate: make(chan struct{})}
	so := NewOrchestrator(south, nil)
	submitted := make(chan error, 1)
	go func() {
		ctx := unify.WithMeta(context.Background(), unify.RequestMeta{Tenant: "acme"})
		_, err := so.Submit(ctx, sg(t, "inflight"))
		submitted <- err
	}()
	// The deploy is parked inside south.Install; Remove must refuse.
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := so.Remove(context.Background(), "inflight")
		if errors.Is(err, unify.ErrBusy) {
			break
		}
		if !errors.Is(err, ErrUnknown) || time.Now().After(deadline) {
			t.Fatalf("remove of in-flight request: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := so.Submit(context.Background(), sg(t, "inflight")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate of an in-flight submit: %v", err)
	}
	close(south.gate)
	if err := <-submitted; err != nil {
		t.Fatalf("after release: %v", err)
	}
	if south.tenant != "acme" {
		t.Fatalf("tenant southbound: %q", south.tenant)
	}
	if err := so.Remove(context.Background(), "inflight"); err != nil {
		t.Fatal(err)
	}
}
