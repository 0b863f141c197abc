package api

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/fleet"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// fleetLeaf is leaf with fleet-wide shared SAP names, so a chain between
// them can be re-embedded on any member after a drain.
func fleetLeaf(t testing.TB, id string, slot int) *core.LocalOrchestrator {
	t.Helper()
	node := nffg.ID(id + "-n1")
	in := nffg.ID(fmt.Sprintf("fs%din", slot))
	out := nffg.ID(fmt.Sprintf("fs%dout", slot))
	sub := nffg.NewBuilder(id+"-sub").
		BiSBiS(node, id, 4, res(8, 4096), "fw", "nat").
		SAP(in).SAP(out).
		Link("u1", in, "1", node, "1", 100, 1).
		Link("u2", node, "2", out, "1", 100, 1).
		MustBuild()
	lo, err := core.NewLocalOrchestrator(core.LocalConfig{ID: id, Substrate: sub})
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

// TestFleetOverHTTP exercises the fleet plane end to end: status, an
// operator drain that rehomes a displaced service, the 423 mapping of
// ErrDomainUnavailable through a remote install, and the fleet summary on
// /v1/unify/healthz.
func TestFleetOverHTTP(t *testing.T) {
	ctx := context.Background()
	ro := core.NewResourceOrchestrator(core.Config{ID: "mdo"})
	fc := fleet.New(fleet.Config{Orchestrator: ro})
	// Both leaves export the slot-0 SAP pair: the victim's service can land
	// on the survivor.
	for _, id := range []string{"west", "east"} {
		if err := fc.Add(ctx, fleetLeaf(t, id, 0)); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(ro, nil).WithFleet(fc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := Dial("mdo", "http://"+addr)
	if err != nil {
		t.Fatal(err)
	}

	info, err := cli.FleetStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Domains) != 2 || info.Stats.Active != 2 {
		t.Fatalf("fleet status: %+v", info)
	}
	for _, d := range info.Domains {
		if d.State != fleet.StateActive {
			t.Fatalf("member %s: %s", d.Domain, d.State)
		}
	}

	// Pin a service on the victim, then drain it through the API.
	svc := nffg.NewBuilder("pinned").
		SAP("fs0in").SAP("fs0out").
		NF("pinned-nf", "fw", 2, res(2, 512)).
		Chain("pinned", 10, 0, "fs0in", "pinned-nf", "fs0out").
		MustBuild()
	svc.NFs["pinned-nf"].Host = "bisbis@east"
	if _, err := cli.Install(ctx, svc); err != nil {
		t.Fatal(err)
	}

	result, err := cli.Drain(ctx, "east")
	if err != nil {
		t.Fatal(err)
	}
	if result.Domain != "east" || len(result.Displaced) != 1 || result.Displaced[0] != "pinned" || result.Rehomed != 1 {
		t.Fatalf("drain result: %+v", result)
	}
	if got := ro.Services(); len(got) != 1 || got[0] != "pinned" {
		t.Fatalf("service not rehomed: %v", got)
	}

	// Installs targeting the drained domain surface 423 -> typed error.
	late := nffg.NewBuilder("late").
		SAP("fs0in").SAP("fs0out").
		NF("late-nf", "fw", 2, res(2, 512)).
		Chain("late", 11, 0, "fs0in", "late-nf", "fs0out").
		MustBuild()
	late.NFs["late-nf"].Host = "bisbis@east"
	if _, err := cli.Install(ctx, late); !errors.Is(err, unify.ErrDomainUnavailable) {
		t.Fatalf("install on drained domain over HTTP: %v", err)
	}

	// Drain errors map too: unknown domain -> typed domain.ErrUnknown via
	// the envelope code, repeat drain -> 423.
	if _, err := cli.Drain(ctx, "nowhere"); !errors.Is(err, domain.ErrUnknown) {
		t.Fatalf("unknown drain: %v", err)
	}
	if _, err := cli.Drain(ctx, "east"); err == nil {
		t.Fatal("double drain must fail remotely")
	}

	// Health carries the fleet summary.
	h, err := cli.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Fleet == nil || h.Fleet.Detached != 1 || h.Fleet.Active != 1 {
		t.Fatalf("health fleet summary: %+v", h.Fleet)
	}

	// And /metrics exports the controller's counters.
	m, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"unify_fleet_services_rehomed", "unify_fleet_detached"} {
		found := false
		for i := 0; i+len(want) <= len(m); i++ {
			if m[i:i+len(want)] == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("metric %s missing from exposition:\n%s", want, m)
		}
	}

	// The client's cheap liveness probe (the fleet prober's Pinger).
	if err := cli.Ping(ctx); err != nil {
		t.Fatal(err)
	}
}
