package monitor

import (
	"strings"
	"testing"

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
	if len(snap.Flows) != 1 {
		t.Fatalf("flows: %+v", snap.Flows)
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
