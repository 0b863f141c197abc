package monitor

import (
	"context"
	"strings"
	"testing"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/dataplane"
	"github.com/unify-repro/escape/internal/domain/emunet"
	"github.com/unify-repro/escape/internal/nffg"
)

func buildNet(t *testing.T) *emunet.Net {
	t.Helper()
	sub := nffg.NewBuilder("sub").
		BiSBiS("s1", "d", 4, nffg.Resources{CPU: 4, Mem: 512, Storage: 4}, "firewall").
		SAP("a").SAP("b").
		Link("u1", "a", "1", "s1", "1", 100, 0.1).
		Link("u2", "s1", "2", "b", "1", 100, 0.1).
		MustBuild()
	eng := dataplane.NewEngine()
	n, err := emunet.Build(eng, sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func runTraffic(t *testing.T, n *emunet.Net, count int) {
	t.Helper()
	sw, _ := n.Switch("s1")
	sw.Table.Install(&dataplane.Rule{ID: "h1@s1", Priority: 10,
		Match: dataplane.Match{InPort: 1, AnyTag: true}, Action: dataplane.Action{OutPort: 2}})
	sapA, _ := n.SAP("a")
	for i := 0; i < count; i++ {
		sapA.Send("b", 100)
	}
	n.Eng.RunToIdle()
}

func TestCollectAndMerge(t *testing.T) {
	n := buildNet(t)
	runTraffic(t, n, 5)
	snap := CollectAll(NetSource{Domain: "mn", Net: n})
	if snap.TotalPackets() != 5 {
		t.Fatalf("total: %d", snap.TotalPackets())
	}
	var foundPort, foundFlow bool
	for _, p := range snap.Ports {
		if p.Node == "mn/s1" && p.Port == 1 && p.RxPk == 5 {
			foundPort = true
		}
	}
	for _, f := range snap.Flows {
		if f.Node == "mn/s1" && f.RuleID == "h1@s1" && f.Packets == 5 && f.Bytes == 500 {
			foundFlow = true
		}
	}
	if !foundPort || !foundFlow {
		t.Fatalf("snapshot incomplete: %+v", snap)
	}
}

func TestHopActivityParsing(t *testing.T) {
	s := &Snapshot{Flows: []FlowCounters{
		{RuleID: "c-1@s1", Packets: 3},
		{RuleID: "c-1@s2", Packets: 3},
		{RuleID: "c-2#1@s3", Packets: 2},
		{RuleID: "plain", Packets: 1},
	}}
	act := s.HopActivity()
	if act["c-1"] != 6 || act["c-2"] != 2 || act["plain"] != 1 {
		t.Fatalf("activity: %v", act)
	}
}

func TestVerifyChain(t *testing.T) {
	s := &Snapshot{Flows: []FlowCounters{
		{RuleID: "c-1@s1", Packets: 10},
		{RuleID: "c-2@s1", Packets: 0},
	}}
	hops := []*nffg.SGHop{{ID: "c-1"}, {ID: "c-2"}}
	lagging := VerifyChain(s, hops, 1)
	if len(lagging) != 1 || lagging[0] != "c-2" {
		t.Fatalf("lagging: %v", lagging)
	}
	if lagging := VerifyChain(s, hops[:1], 1); len(lagging) != 0 {
		t.Fatalf("healthy chain misreported: %v", lagging)
	}
}

func TestRender(t *testing.T) {
	n := buildNet(t)
	runTraffic(t, n, 2)
	var sb strings.Builder
	CollectAll(NetSource{Domain: "mn", Net: n}).Render(&sb)
	out := sb.String()
	for _, want := range []string{"NODE", "RULE", "mn/s1", "h1@s1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMergeSorts(t *testing.T) {
	a := &Snapshot{Flows: []FlowCounters{{Node: "z", RuleID: "r"}}}
	b := &Snapshot{Flows: []FlowCounters{{Node: "a", RuleID: "r"}}}
	m := Merge(a, b, nil)
	if m.Flows[0].Node != "a" || m.Flows[1].Node != "z" {
		t.Fatalf("merge unsorted: %+v", m.Flows)
	}
}

// TestOrchAndQueueSources: the control-plane counters flow through
// Collect/Merge/Render like the dataplane ones.
func TestOrchAndQueueSources(t *testing.T) {
	ro := core.NewResourceOrchestrator(core.Config{ID: "mdo"})
	sub := nffg.NewBuilder("dom").
		BiSBiS("dom-n", "dom", 4, nffg.Resources{CPU: 16, Mem: 8192, Storage: 16}, "fw").
		SAP("sapA").SAP("sapB").
		Link("u1", "sapA", "1", "dom-n", "1", 100, 1).
		Link("u2", "dom-n", "2", "sapB", "1", 100, 1).
		MustBuild()
	lo, err := core.NewLocalOrchestrator(core.LocalConfig{ID: "dom", Substrate: sub})
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.Attach(context.Background(), lo); err != nil {
		t.Fatal(err)
	}
	q := admission.New(ro, admission.Options{})
	defer q.Close()

	g := nffg.NewBuilder("svc").
		SAP("sapA").SAP("sapB").
		NF("svc-nf", "fw", 2, nffg.Resources{CPU: 2, Mem: 512, Storage: 2}).
		Chain("svc", 1, 0, "sapA", "svc-nf", "sapB").
		MustBuild()
	if _, err := q.Install(context.Background(), g); err != nil {
		t.Fatal(err)
	}

	snap := CollectAll(OrchSource{Orch: ro}, QueueSource{Queue: q})
	if len(snap.Orch) != 1 || len(snap.Admission) != 1 {
		t.Fatalf("sources missing: %+v", snap)
	}
	o := snap.Orch[0]
	if o.Layer != "mdo" || o.Installs != 1 || o.MapAttempts < 1 || o.Batches != 1 {
		t.Fatalf("orch counters: %+v", o)
	}
	if got := o.AttemptsPerInstall(); got < 1 {
		t.Fatalf("attempts/install: %f", got)
	}
	a := snap.Admission[0]
	if a.Queue != "mdo" || a.Deployed != 1 || a.Batches != 1 || a.MeanBatch() != 1 {
		t.Fatalf("admission counters: %+v", a)
	}

	// The read caches flow through too: a view read warms the view cache and
	// the counters surface in the snapshot and the rendered report.
	if _, err := ro.View(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.View(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap = CollectAll(OrchSource{Orch: ro}, QueueSource{Queue: q})
	o = snap.Orch[0]
	if o.ViewCache.Misses == 0 || o.ViewCache.Hits == 0 {
		t.Fatalf("view cache counters missing: %+v", o.ViewCache)
	}

	var buf strings.Builder
	snap.Render(&buf)
	out := buf.String()
	for _, want := range []string{"ORCHESTRATOR", "CONFLICTS", "QUEUE", "MEAN-BATCH", "CACHE", "INVALIDATIONS", "HIT-RATE"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestShardCountersFlow: per-shard DoV generations and per-shard queue lanes
// flow through Collect and Render alongside the aggregate counters.
func TestShardCountersFlow(t *testing.T) {
	ro := core.NewResourceOrchestrator(core.Config{ID: "mdo"})
	for _, name := range []string{"east", "west"} {
		sub := nffg.NewBuilder(name).
			BiSBiS(nffg.ID(name+"-n"), name, 4, nffg.Resources{CPU: 16, Mem: 8192, Storage: 16}, "fw").
			SAP(nffg.ID(name+"-in")).SAP(nffg.ID(name+"-out")).
			Link("u1", nffg.ID(name+"-in"), "1", nffg.ID(name+"-n"), "1", 100, 1).
			Link("u2", nffg.ID(name+"-n"), "2", nffg.ID(name+"-out"), "1", 100, 1).
			MustBuild()
		lo, err := core.NewLocalOrchestrator(core.LocalConfig{ID: name, Substrate: sub})
		if err != nil {
			t.Fatal(err)
		}
		if err := ro.Attach(context.Background(), lo); err != nil {
			t.Fatal(err)
		}
	}
	q := admission.New(ro, admission.Options{})
	defer q.Close()
	g := nffg.NewBuilder("svc").
		SAP("east-in").SAP("east-out").
		NF("svc-nf", "fw", 2, nffg.Resources{CPU: 2, Mem: 512, Storage: 2}).
		Chain("svc", 1, 0, "east-in", "svc-nf", "east-out").
		MustBuild()
	g.NFs["svc-nf"].Host = "bisbis@east"
	if _, err := q.Install(context.Background(), g); err != nil {
		t.Fatal(err)
	}

	snap := CollectAll(OrchSource{Orch: ro}, QueueSource{Queue: q})
	o := snap.Orch[0]
	if len(o.Shards) != 2 || o.Shards[0].Shard != "east" || o.Shards[1].Shard != "west" {
		t.Fatalf("shard counters: %+v", o.Shards)
	}
	// The single-shard install committed on east only: west saw just its
	// attach merge.
	if o.Shards[0].Commits <= o.Shards[1].Commits {
		t.Fatalf("east should out-commit west: %+v", o.Shards)
	}
	for _, sh := range o.Shards {
		if sh.Gen != sh.Commits {
			t.Fatalf("gen invariant: %+v", sh)
		}
	}
	a := snap.Admission[0]
	if a.Shards["east"].Batches == 0 {
		t.Fatalf("queue lane gauges: %+v", a.Shards)
	}

	var buf strings.Builder
	snap.Render(&buf)
	out := buf.String()
	for _, want := range []string{"SHARD", "MULTI-SHARD", "east", "west", "LANE"} {
		if want == "LANE" {
			want = "COALESCED"
		}
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
