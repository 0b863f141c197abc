package service

import (
	"context"
	"errors"
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
	req, err := so.Submit(context.Background(), sg(t, "s1"))
	if err != nil {
		t.Fatal(err)
	}
	if req.State != StateDeployed {
		t.Fatalf("state: %s (%s)", req.State, req.Error)
	}
	if req.Receipt == nil || len(req.Receipt.Placements) != 1 {
		t.Fatalf("receipt: %+v", req.Receipt)
	}
	// The NF must have landed on a real internal node.
	host := req.Receipt.Placements["s1-fw"]
	if host != "n1" && host != "n2" {
		t.Fatalf("delegated placement should resolve internally, got %s", host)
	}
}

func TestSubmitPremapsOnTransparentView(t *testing.T) {
	lo := leaf(t, core.Transparent{})
	so := NewOrchestrator(lo, nil)
	req, err := so.Submit(context.Background(), sg(t, "s2"))
	if err != nil {
		t.Fatal(err)
	}
	if req.State != StateDeployed {
		t.Fatalf("state: %s (%s)", req.State, req.Error)
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
	// Failures are recorded.
	if r, err := so.Get("s6"); err != nil || r.State != StateFailed || r.Error == "" {
		t.Fatalf("failed request should be recorded: %+v (%v)", r, err)
	}
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
	r, err := so.Get("r1")
	if err != nil || r.State != StateRemoved {
		t.Fatalf("state after remove: %+v (%v)", r, err)
	}
	if len(lo.Services()) != 0 {
		t.Fatal("lower layer should be clean")
	}
	if err := so.Remove(context.Background(), "ghost"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown remove: %v", err)
	}
	// Removing a failed request is a no-op state change.
	bad := sg(t, "r2")
	_ = bad.AddInfra(&nffg.Infra{ID: "rogue"})
	_, _ = so.Submit(context.Background(), bad)
	if err := so.Remove(context.Background(), "r2"); err != nil {
		t.Fatal(err)
	}
}

func TestListAndStats(t *testing.T) {
	lo := leaf(t, nil)
	so := NewOrchestrator(lo, nil)
	_, _ = so.Submit(context.Background(), sg(t, "a"))
	bad := sg(t, "b")
	_ = bad.AddInfra(&nffg.Infra{ID: "rogue"})
	_, _ = so.Submit(context.Background(), bad)
	ls := so.List()
	if len(ls) != 2 || ls[0].ID != "a" || ls[1].ID != "b" {
		t.Fatalf("list: %+v", ls)
	}
	st := so.Stats()
	if st[StateDeployed] != 1 || st[StateFailed] != 1 {
		t.Fatalf("stats: %v", st)
	}
}

func TestCapacityRejectionIsFailedState(t *testing.T) {
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
	r, _ := so.Get("big")
	if r.State != StateFailed {
		t.Fatalf("state: %s", r.State)
	}
}

// TestSubmitAsyncDeploysInBackground: SubmitAsync returns immediately with a
// StateReceived snapshot; Wait observes the terminal state.
func TestSubmitAsyncDeploysInBackground(t *testing.T) {
	lo := leaf(t, nil)
	so := NewOrchestrator(lo, nil)
	snap, err := so.SubmitAsync(context.Background(), sg(t, "as1"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateReceived {
		t.Fatalf("async snapshot: %s", snap.State)
	}
	done, err := so.Wait(context.Background(), "as1")
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDeployed || done.Receipt == nil {
		t.Fatalf("deployed request: %+v", done)
	}
	// A failing graph terminates in StateFailed and wakes waiters too.
	bad := sg(t, "as2")
	bad.NFs.Get("as2-fw").FunctionalType = "quantum"
	if _, err := so.SubmitAsync(context.Background(), bad); err != nil {
		t.Fatal(err)
	}
	failed, err := so.Wait(context.Background(), "as2")
	if err != nil {
		t.Fatal(err)
	}
	if failed.State != StateFailed || failed.Error == "" {
		t.Fatalf("failed request: %+v", failed)
	}
	// Duplicate async submissions reject synchronously; waiting on unknown
	// IDs errors.
	if _, err := so.SubmitAsync(context.Background(), sg(t, "as1")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
	if _, err := so.Wait(context.Background(), "ghost"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown wait: %v", err)
	}
}

// gateLayer is a unify.Layer whose Install blocks until released, for
// observing in-flight async deployments.
type gateLayer struct {
	view *nffg.NFFG
	gate chan struct{}
}

func (g *gateLayer) ID() string                               { return "gate" }
func (g *gateLayer) View(context.Context) (*nffg.NFFG, error) { return g.view.Copy(), nil }
func (g *gateLayer) Remove(context.Context, string) error     { return nil }
func (g *gateLayer) Services() []string                       { return nil }
func (g *gateLayer) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &unify.Receipt{ServiceID: req.ID}, nil
}

// TestRemoveInFlightAsync: removing a request whose background deployment has
// not finished is refused (ErrBusy) instead of silently racing the deploy.
func TestRemoveInFlightAsync(t *testing.T) {
	view := nffg.NewBuilder("v").
		BiSBiS("n1", "d", 4, res(8, 4096), "fw").
		SAP("sapA").SAP("sapB").
		Link("u1", "sapA", "1", "n1", "1", 100, 1).
		Link("u2", "n1", "2", "sapB", "1", 100, 1).
		MustBuild()
	south := &gateLayer{view: view, gate: make(chan struct{})}
	so := NewOrchestrator(south, nil)
	if _, err := so.SubmitAsync(context.Background(), sg(t, "inflight")); err != nil {
		t.Fatal(err)
	}
	// The deploy is parked inside south.Install; Remove must refuse.
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := so.Remove(context.Background(), "inflight")
		if errors.Is(err, unify.ErrBusy) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("remove of in-flight request: %v", err)
		}
	}
	close(south.gate)
	done, err := so.Wait(context.Background(), "inflight")
	if err != nil || done.State != StateDeployed {
		t.Fatalf("after release: %+v %v", done, err)
	}
	if err := so.Remove(context.Background(), "inflight"); err != nil {
		t.Fatal(err)
	}
}
