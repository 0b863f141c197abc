package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// flakyProgrammer fails the first n commits, then succeeds.
type flakyProgrammer struct {
	failures atomic.Int32
	commits  atomic.Int32
}

func (p *flakyProgrammer) Commit(context.Context, *nffg.Delta, *nffg.NFFG) error {
	p.commits.Add(1)
	if p.failures.Load() > 0 {
		p.failures.Add(-1)
		return errors.New("transient device failure")
	}
	return nil
}

func TestLocalOrchestratorRetryAfterTransientFailure(t *testing.T) {
	prog := &flakyProgrammer{}
	prog.failures.Store(1)
	lo := leafDomain(t, "fl", "sapA", "border", prog)
	req := chainReq(t, "svc", "sapA", "border", "fw")
	// First attempt fails; the orchestrator must stay clean.
	if _, err := lo.Install(context.Background(), req); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("first install: %v", err)
	}
	if len(lo.Services()) != 0 {
		t.Fatal("failed install recorded")
	}
	// Retry with the same request succeeds (idempotent state).
	if _, err := lo.Install(context.Background(), chainReq(t, "svc", "sapA", "border", "fw")); err != nil {
		t.Fatalf("retry should succeed: %v", err)
	}
	if len(lo.Services()) != 1 {
		t.Fatal("retry not recorded")
	}
}

// teardownFailingProgrammer accepts installs but fails deletions once.
type teardownFailingProgrammer struct {
	failDeletes atomic.Int32
}

func (p *teardownFailingProgrammer) Commit(_ context.Context, d *nffg.Delta, _ *nffg.NFFG) error {
	_, dn, _, dr := d.Counts()
	if (dn > 0 || dr > 0) && p.failDeletes.Load() > 0 {
		p.failDeletes.Add(-1)
		return errors.New("device unreachable during teardown")
	}
	return nil
}

func TestLocalOrchestratorTeardownFailureKeepsService(t *testing.T) {
	prog := &teardownFailingProgrammer{}
	prog.failDeletes.Store(1)
	lo := leafDomain(t, "td", "sapA", "border", prog)
	if _, err := lo.Install(context.Background(), chainReq(t, "svc", "sapA", "border", "fw")); err != nil {
		t.Fatal(err)
	}
	// Teardown fails: the service must remain tracked (retryable).
	if err := lo.Remove(context.Background(), "svc"); err == nil {
		t.Fatal("teardown should fail")
	}
	if len(lo.Services()) != 1 {
		t.Fatal("service must remain after failed teardown")
	}
	// Second attempt succeeds.
	if err := lo.Remove(context.Background(), "svc"); err != nil {
		t.Fatalf("retry teardown: %v", err)
	}
	if len(lo.Services()) != 0 {
		t.Fatal("service should be gone")
	}
}

func TestROPartialChildFailureMidChain(t *testing.T) {
	// Three leaves in a row; the middle one fails. The RO must roll back the
	// already-installed sub-services on the other children.
	progA, progC := &recordingProgrammer{}, &recordingProgrammer{}
	progB := &recordingProgrammer{failPfx: "svc"}
	mk := func(name string, prog Programmer, left, right nffg.ID) *LocalOrchestrator {
		sub := nffg.NewBuilder(name).
			BiSBiS(nffg.ID(name+"-n"), name, 4, res(8, 4096), "fw", "dpi", "nat").
			SAP(left).SAP(right).
			Link("l", left, "1", nffg.ID(name+"-n"), "1", 1000, 1).
			Link("r", nffg.ID(name+"-n"), "2", right, "1", 1000, 1).
			MustBuild()
		lo, err := NewLocalOrchestrator(LocalConfig{ID: name, Substrate: sub, Programmer: prog})
		if err != nil {
			t.Fatal(err)
		}
		return lo
	}
	loA := mk("A", progA, "sap1", "b1")
	loB := mk("B", progB, "b1", "b2")
	loC := mk("C", progC, "b2", "sap2")
	ro := NewResourceOrchestrator(Config{ID: "ro"})
	for _, d := range []*LocalOrchestrator{loA, loB, loC} {
		if err := ro.Attach(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	req := nffg.NewBuilder("svc").
		SAP("sap1").SAP("sap2").
		NF("svc-fw", "fw", 2, res(2, 512)).
		NF("svc-dpi", "dpi", 2, res(2, 512)).
		NF("svc-nat", "nat", 2, res(2, 512)).
		Chain("svc", 10, 0, "sap1", "svc-fw", "svc-dpi", "svc-nat", "sap2").
		MustBuild()
	req.NFs.Get("svc-fw").Host = "bisbis@A"
	req.NFs.Get("svc-dpi").Host = "bisbis@B" // lands on the failing child
	req.NFs.Get("svc-nat").Host = "bisbis@C"
	if _, err := ro.Install(context.Background(), req); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("install should fail: %v", err)
	}
	for _, lo := range []*LocalOrchestrator{loA, loB, loC} {
		if n := len(lo.Services()); n != 0 {
			t.Fatalf("child %s kept %d services after rollback", lo.ID(), n)
		}
	}
	if len(ro.Services()) != 0 {
		t.Fatal("RO must not track the failed service")
	}
	// Capacity fully restored everywhere.
	for _, lo := range []*LocalOrchestrator{loA, loC} {
		v, _ := lo.View(context.Background())
		for _, id := range v.InfraIDs() {
			if v.Infras.Get(id).Capacity.CPU != 8 {
				t.Fatalf("capacity leak on %s: %g", lo.ID(), v.Infras.Get(id).Capacity.CPU)
			}
		}
	}
}

func TestROManySequentialServices(t *testing.T) {
	// Churn test: repeated install/remove cycles must not leak resources or
	// state anywhere in the stack.
	ro, loA, loB := buildMdO(t, &recordingProgrammer{}, &recordingProgrammer{})
	for i := 0; i < 25; i++ {
		id := fmt.Sprintf("churn%02d", i)
		req := chainReq(t, id, "sap1", "sap2", "fw")
		if _, err := ro.Install(context.Background(), req); err != nil {
			t.Fatalf("cycle %d install: %v", i, err)
		}
		if err := ro.Remove(context.Background(), id); err != nil {
			t.Fatalf("cycle %d remove: %v", i, err)
		}
	}
	if len(ro.Services())+len(loA.Services())+len(loB.Services()) != 0 {
		t.Fatal("state leaked across churn")
	}
	dov := mustDoV(t, ro)
	if dov.NFs.Len() != 0 {
		t.Fatalf("NFs leaked into DoV: %v", dov.NFIDs())
	}
	for _, id := range dov.InfraIDs() {
		if len(slices.Collect(dov.Infras.Get(id).Flowrules())) != 0 {
			t.Fatalf("rules leaked on %s", id)
		}
	}
}
