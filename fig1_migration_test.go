package escape

import (
	"context"
	"strings"
	"testing"
)

// TestFig1Migration exercises the paper's "migration between technologies":
// a NAT deployed as a Click process in the Mininet domain is re-homed onto
// the Universal Node as a container, without changing the service graph.
func TestFig1Migration(t *testing.T) {
	sys := newSys(t)
	g := NewBuilder("mig").
		SAP("sap1").SAP("sap2").
		NF("mig-nat", "nat", 2, Resources{CPU: 2, Mem: 1024, Storage: 2}).
		Chain("mig", 10, 0, "sap1", "mig-nat", "sap2").
		MustBuild()
	g.NFs.Get("mig-nat").Host = "bisbis@mininet"
	if _, err := sys.Service.Submit(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if nfs := sys.Mininet.Net().RunningNFs(); len(nfs) != 1 {
		t.Fatalf("NAT should run as a Click process first: %v", nfs)
	}
	// Traffic before migration traverses the Click instance.
	sap1, _ := sys.SAP1()
	sap2, _ := sys.SAP2()
	sap1.Send("sap2", 200)
	sys.Engine.RunToIdle()
	if got := sap2.Received(); len(got) != 1 || !strings.Contains(strings.Join(got[0].Trace, ","), "click:nat:mig-nat") {
		t.Fatalf("pre-migration trace wrong: %v", got)
	}

	// Migrate to the UN.
	migrated, err := sys.Service.Migrate(context.Background(), "mig", map[ID]ID{"mig-nat": "bisbis@un"})
	if err != nil {
		t.Fatal(err)
	}
	if migrated.Placements["mig-nat"] != "bisbis@un" {
		t.Fatalf("placement after migration: %v", migrated.Placements)
	}
	if nfs := sys.Mininet.Net().RunningNFs(); len(nfs) != 0 {
		t.Fatalf("Click instance should be stopped: %v", nfs)
	}
	if cs := sys.UN.Runtime().List(); len(cs) != 1 || cs[0].ID != "mig-nat" {
		t.Fatalf("container should run on the UN: %+v", cs)
	}
	// Traffic after migration traverses the container.
	sap1.Send("sap2", 200)
	sys.Engine.RunToIdle()
	got := sap2.Received()
	last := got[len(got)-1]
	trace := strings.Join(last.Trace, ",")
	if !strings.Contains(trace, "docker:nat:mig-nat") {
		t.Fatalf("post-migration trace wrong: %s", trace)
	}
	if strings.Contains(trace, "click:") {
		t.Fatalf("old instance still in path: %s", trace)
	}
}

// TestMigrationRollback: migrating to an infeasible placement restores the
// original deployment.
func TestMigrationRollback(t *testing.T) {
	sys := newSys(t)
	g := NewBuilder("roll").
		SAP("sap1").SAP("sap2").
		NF("roll-fw", "firewall", 2, Resources{CPU: 2, Mem: 1024, Storage: 2}).
		Chain("roll", 10, 0, "sap1", "roll-fw", "sap2").
		MustBuild()
	g.NFs.Get("roll-fw").Host = "bisbis@mininet"
	if _, err := sys.Service.Submit(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	// The SDN domain cannot host NFs: migration must fail and restore.
	restored, err := sys.Service.Migrate(context.Background(), "roll", map[ID]ID{"roll-fw": "bisbis@sdn"})
	if err == nil {
		t.Fatal("migration to a forwarding-only domain must fail")
	}
	if restored == nil || restored.Placements["roll-fw"] != "bisbis@mininet" {
		t.Fatalf("original should be restored: %+v", restored)
	}
	if nfs := sys.Mininet.Net().RunningNFs(); len(nfs) != 1 {
		t.Fatalf("original Click instance should be back: %v", nfs)
	}
	// And the service still carries traffic.
	sap1, _ := sys.SAP1()
	sap2, _ := sys.SAP2()
	sap1.Send("sap2", 100)
	sys.Engine.RunToIdle()
	if len(sap2.Received()) != 1 {
		t.Fatal("restored service should carry traffic")
	}
}

// TestMigrationValidation covers the error paths.
func TestMigrationValidation(t *testing.T) {
	sys := newSys(t)
	if _, err := sys.Service.Migrate(context.Background(), "ghost", nil); err == nil {
		t.Fatal("unknown service must fail")
	}
	g := NewBuilder("v").
		SAP("sap1").SAP("sap2").
		NF("v-fw", "firewall", 2, Resources{CPU: 1, Mem: 512, Storage: 1}).
		Chain("v", 5, 0, "sap1", "v-fw", "sap2").
		MustBuild()
	if _, err := sys.Service.Submit(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Service.Migrate(context.Background(), "v", map[ID]ID{"nonexistent": "bisbis@un"}); err == nil {
		t.Fatal("unknown NF must fail")
	}
	if err := sys.Service.Remove(context.Background(), "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Service.Migrate(context.Background(), "v", nil); err == nil {
		t.Fatal("migrating a removed service must fail")
	}
}
