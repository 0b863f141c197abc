package embed

import (
	"errors"
	"slices"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
)

func mapAndApply(t *testing.T, sub, req *nffg.NFFG) (*nffg.NFFG, *Mapping) {
	t.Helper()
	mp, err := NewDefault().Map(sub, req)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Apply(sub, mp)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, mp
}

func TestApplyPlacesAndPrograms(t *testing.T) {
	sub := lineSubstrate(t)
	req := chainRequest(t, 2, 10, 0)
	cfg, mp := mapAndApply(t, sub, req)

	// NFs placed.
	for nf, host := range mp.NFHost {
		got, ok := cfg.NFs.Lookup(nf)
		if !ok || got.Host != host || got.Status != nffg.StatusMapped {
			t.Fatalf("NF %s not placed correctly: %+v", nf, got)
		}
	}
	// Flowtables non-empty on hosts along the chain.
	totalRules := 0
	for _, id := range cfg.InfraIDs() {
		totalRules += len(slices.Collect(cfg.Infras.Get(id).Flowrules()))
	}
	if totalRules == 0 {
		t.Fatal("no flowrules generated")
	}
	// The configured graph must validate.
	if err := cfg.Validate(); err != nil {
		t.Fatalf("configured graph invalid: %v", err)
	}
	// Substrate input untouched.
	if sub.NFs.Len() != 0 {
		t.Fatal("Apply must not mutate the substrate")
	}
}

func TestApplyReservesBandwidth(t *testing.T) {
	sub := lineSubstrate(t)
	req := chainRequest(t, 1, 40, 0)
	cfg, mp := mapAndApply(t, sub, req)
	// Every link on every hop path lost 40 Mbit/s.
	for h := range req.Hops() {
		for _, lid := range mp.Paths[h.ID].Links {
			orig := sub.LinkByID(string(lid))
			now := cfg.LinkByID(string(lid))
			if now.Bandwidth != orig.Bandwidth-40 {
				t.Fatalf("link %s: want %g, got %g", lid, orig.Bandwidth-40, now.Bandwidth)
			}
		}
	}
}

func TestApplyThenRelease(t *testing.T) {
	sub := lineSubstrate(t)
	req := chainRequest(t, 2, 25, 0)
	cfg, mp := mapAndApply(t, sub, req)
	if err := Release(cfg, mp); err != nil {
		t.Fatal(err)
	}
	// All rules gone, bandwidth restored, NFs gone, hops gone.
	for _, id := range cfg.InfraIDs() {
		if len(slices.Collect(cfg.Infras.Get(id).Flowrules())) != 0 {
			t.Fatalf("rules remain on %s", id)
		}
	}
	for l := range cfg.Links() {
		orig := sub.LinkByID(l.ID)
		if l.Bandwidth != orig.Bandwidth {
			t.Fatalf("link %s bandwidth not restored: %g vs %g", l.ID, l.Bandwidth, orig.Bandwidth)
		}
	}
	if cfg.NFs.Len() != 0 || cfg.NumHops() != 0 || slices.Collect(cfg.Reqs()) != nil {
		t.Fatalf("release incomplete: %s", cfg.Render())
	}
}

func TestApplySequentialRequestsConsumeCapacity(t *testing.T) {
	sub := lineSubstrate(t)
	cur := sub
	// SAP uplink is 100 Mbit/s; 60-Mbit chains fit once, not twice.
	req1 := chainRequest(t, 1, 60, 0)
	mp1, err := NewDefault().Map(cur, req1)
	if err != nil {
		t.Fatal(err)
	}
	cur, err = Apply(cur, mp1)
	if err != nil {
		t.Fatal(err)
	}
	req2 := nffg.NewBuilder("req2").
		SAP("sap1").SAP("sap2").
		NF("other1", "fw", 2, res(2, 1024)).
		Chain("d", 60, 0, "sap1", "other1", "sap2").
		MustBuild()
	if _, err := NewDefault().Map(cur, req2); !errors.Is(err, ErrUnmappable) {
		t.Fatalf("second 60-Mbit chain must fail on 100-Mbit uplink: %v", err)
	}
}

func TestApplyTagDiscipline(t *testing.T) {
	sub := lineSubstrate(t)
	req := chainRequest(t, 1, 10, 0)
	cfg, _ := mapAndApply(t, sub, req)
	// Multi-node hops must push a tag at ingress and pop at egress.
	push, pop := 0, 0
	for _, id := range cfg.InfraIDs() {
		for f := range cfg.Infras.Get(id).Flowrules() {
			if f.Action.PushTag != "" {
				push++
			}
			if f.Action.PopTag {
				pop++
			}
			// Rules into NF ports deliver untagged traffic.
			if f.Action.Output.IsNF() && f.Action.PushTag != "" {
				t.Fatalf("NF delivery must be untagged: %s", f.String())
			}
		}
	}
	if push != pop {
		t.Fatalf("push/pop must balance across the chain: push=%d pop=%d", push, pop)
	}
}

func TestApplyConflictDetection(t *testing.T) {
	sub := lineSubstrate(t)
	req1 := chainRequest(t, 1, 5, 0)
	cfg, _ := mapAndApply(t, sub, req1)
	// A second chain from the same SAP collides at the untagged ingress rule.
	req2 := nffg.NewBuilder("req2").
		SAP("sap1").SAP("sap2").
		NF("zz1", "fw", 2, res(2, 1024)).
		Chain("e", 5, 0, "sap1", "zz1", "sap2").
		MustBuild()
	mp2, err := NewDefault().Map(cfg, req2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(cfg, mp2); !errors.Is(err, ErrConflict) {
		t.Fatalf("same-SAP second chain must conflict: %v", err)
	}
}

func TestApplyColocatedNFs(t *testing.T) {
	// One big node: both NFs land together, hop between them is internal.
	sub := nffg.NewBuilder("sub").
		BiSBiS("bb1", "d", 4, res(32, 32768), "fw").
		SAP("sap1").SAP("sap2").
		Link("l0", "sap1", "1", "bb1", "1", 100, 1).
		Link("l1", "bb1", "2", "sap2", "1", 100, 1).
		MustBuild()
	req := chainRequest(t, 2, 10, 0)
	cfg, mp := mapAndApply(t, sub, req)
	if mp.NFHost["nf1"] != "bb1" || mp.NFHost["nf2"] != "bb1" {
		t.Fatalf("both NFs must colocate: %v", mp.NFHost)
	}
	// The internal hop's rule connects two NF ports directly.
	found := false
	for f := range cfg.Infras.Get("bb1").Flowrules() {
		if f.Match.InPort.IsNF() && f.Action.Output.IsNF() {
			found = true
		}
	}
	if !found {
		t.Fatal("internal NF->NF rule missing")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}
