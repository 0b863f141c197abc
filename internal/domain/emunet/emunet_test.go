package emunet

import (
	"errors"
	"fmt"
	"testing"

	"github.com/unify-repro/escape/internal/dataplane"
	"github.com/unify-repro/escape/internal/nffg"
)

func substrate(t testing.TB) *nffg.NFFG {
	t.Helper()
	g, err := nffg.NewBuilder("sub").
		BiSBiS("s1", "d", 4, nffg.Resources{CPU: 8, Mem: 1024, Storage: 8}, "firewall").
		BiSBiS("s2", "d", 4, nffg.Resources{CPU: 8, Mem: 1024, Storage: 8}, "firewall").
		SAP("sapA").SAP("border").
		Link("u", "sapA", "1", "s1", "1", 100, 1).
		Link("m", "s1", "2", "s2", "1", 1000, 1).
		Link("b", "s2", "2", "border", "1", 500, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildCreatesElements(t *testing.T) {
	eng := dataplane.NewEngine()
	n, err := Build(eng, substrate(t), map[nffg.ID]bool{"border": true})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.SwitchIDs()) != 2 {
		t.Fatalf("switches: %v", n.SwitchIDs())
	}
	if _, err := n.SAP("sapA"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SAP("border"); err == nil {
		t.Fatal("border must not be a host")
	}
	at, err := n.BorderPort("border")
	if err != nil {
		t.Fatal(err)
	}
	if at.Node != "s2" || at.Port != 2 {
		t.Fatalf("border attachment: %+v", at)
	}
	if _, err := n.Switch("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown switch: %v", err)
	}
}

func TestNFLifecycleAndPortAllocation(t *testing.T) {
	eng := dataplane.NewEngine()
	n, err := Build(eng, substrate(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	ports, err := n.StartNF("fw1", "s1", []string{"1", "2"}, dataplane.NewPipe(0, "fw1"))
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic ports must be allocated above the static range (1..4).
	for _, sp := range ports {
		if sp <= 4 {
			t.Fatalf("dynamic port %d collides with static range", sp)
		}
	}
	if _, err := n.StartNF("fw1", "s1", []string{"1"}, dataplane.NewPipe(0, "x")); err == nil {
		t.Fatal("duplicate NF must fail")
	}
	got, err := n.NFPorts("fw1")
	if err != nil || len(got) != 2 {
		t.Fatalf("NFPorts: %v (%v)", got, err)
	}
	if ids := n.RunningNFs(); len(ids) != 1 || ids[0] != "fw1" {
		t.Fatalf("running: %v", ids)
	}
	if err := n.StopNF("fw1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.NFPorts("fw1"); !errors.Is(err, ErrUnknownNF) {
		t.Fatalf("after stop: %v", err)
	}
	// A new NF on the same switch takes over the ports fw1 gave back.
	again, err := n.StartNF("fw2", "s1", []string{"1", "2"}, dataplane.NewPipe(0, "fw2"))
	if err != nil {
		t.Fatal(err)
	}
	if again["1"] != 5 || again["2"] != 6 {
		t.Fatalf("freed ports should go out again lowest first, got %v", again)
	}
}

// OpenFlow port numbers are 16 bits: however many NFs a switch has seen come
// and go, its dynamic ports stay just above the static ones.
func TestNFPortsAreRecycled(t *testing.T) {
	n, err := Build(dataplane.NewEngine(), substrate(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	const static, resident = 4, 3 // s1's static ports; NFs that stay
	live := 0
	start := func(id nffg.ID, ports ...string) {
		t.Helper()
		got, err := n.StartNF(id, "s1", ports, dataplane.NewPipe(0, string(id)))
		if err != nil {
			t.Fatal(err)
		}
		live += len(ports)
		for _, p := range got {
			if p <= static || p > static+live {
				t.Fatalf("NF %s got switch port %d with %d NF ports live above %d static ones", id, p, live, static)
			}
		}
	}
	stop := func(id nffg.ID, ports int) {
		t.Helper()
		if err := n.StopNF(id); err != nil {
			t.Fatal(err)
		}
		live -= ports
	}
	for i := 0; i < resident; i++ {
		start(nffg.ID(fmt.Sprint("resident", i)), "1", "2")
	}
	for i := 0; i < 40000; i++ {
		id := nffg.ID(fmt.Sprint("nf", i))
		start(id, "1", "2", "3")
		if i%7 == 0 { // now and then two overlap, so ports come back out of order
			start(id+"b", "1")
			stop(id, 3)
			stop(id+"b", 1)
		} else {
			stop(id, 3)
		}
	}
}

func TestPatchConnectsDomains(t *testing.T) {
	eng := dataplane.NewEngine()
	// Two single-switch nets, each with one user SAP and one border.
	mk := func(name, sap, border string) *Net {
		g := nffg.NewBuilder(name).
			BiSBiS(nffg.ID(name+"-s"), name, 4, nffg.Resources{CPU: 4, Mem: 512, Storage: 4}).
			SAP(nffg.ID(sap)).SAP(nffg.ID(border)).
			Link("u", nffg.ID(sap), "1", nffg.ID(name+"-s"), "1", 100, 1).
			Link("b", nffg.ID(name+"-s"), "2", nffg.ID(border), "1", 100, 1).
			MustBuild()
		n, err := Build(eng, g, map[nffg.ID]bool{nffg.ID(border): true})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	netA := mk("a", "sapA", "bx")
	netB := mk("b", "sapB", "bx")
	if err := Patch(netA, "bx", netB, "bx", 500, 2); err != nil {
		t.Fatal(err)
	}
	// Program a path sapA -> a-s -> b-s -> sapB by hand.
	swA, _ := netA.Switch("a-s")
	swB, _ := netB.Switch("b-s")
	swA.Table.Install(&dataplane.Rule{ID: "f", Match: dataplane.Match{InPort: 1, AnyTag: true}, Action: dataplane.Action{OutPort: 2}})
	swB.Table.Install(&dataplane.Rule{ID: "f", Match: dataplane.Match{InPort: 2, AnyTag: true}, Action: dataplane.Action{OutPort: 1}})
	sapA, _ := netA.SAP("sapA")
	sapB, _ := netB.SAP("sapB")
	sapA.Send("sapB", 100)
	eng.RunToIdle()
	if len(sapB.Received()) != 1 {
		t.Fatal("cross-domain delivery failed")
	}
}

func TestTranslateRule(t *testing.T) {
	nfPorts := func(nf nffg.ID) (map[string]int, error) {
		if nf == "fw" {
			return map[string]int{"1": 7, "2": 8}, nil
		}
		return nil, errors.New("unknown NF")
	}
	f := &nffg.Flowrule{
		ID:     "r1",
		Match:  nffg.Match{InPort: nffg.InfraPort("3"), Tag: "t"},
		Action: nffg.Action{Output: nffg.NFPort("fw", "1"), PopTag: true},
	}
	r, err := TranslateRule(f, nfPorts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Match.InPort != 3 || r.Match.Tag != "t" || r.Match.AnyTag {
		t.Fatalf("match: %+v", r.Match)
	}
	if r.Action.OutPort != 7 || !r.Action.PopTag {
		t.Fatalf("action: %+v", r.Action)
	}
	if r.Priority != 100 { // tagged default priority
		t.Fatalf("priority: %d", r.Priority)
	}
	// Untagged (wildcard tag) default priority is lower.
	f2 := &nffg.Flowrule{
		ID:     "r2",
		Match:  nffg.Match{InPort: nffg.InfraPort("1")},
		Action: nffg.Action{Output: nffg.InfraPort("2")},
	}
	r2, err := TranslateRule(f2, nfPorts)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Priority != 10 || !r2.Match.AnyTag {
		t.Fatalf("untagged translate: %+v", r2)
	}
	// Untagged exact match.
	f3 := &nffg.Flowrule{
		ID:     "r3",
		Match:  nffg.Match{InPort: nffg.InfraPort("1"), MatchUntagged: true},
		Action: nffg.Action{Output: nffg.InfraPort("2")},
	}
	r3, _ := TranslateRule(f3, nfPorts)
	if r3.Match.AnyTag || r3.Match.Tag != "" {
		t.Fatalf("untagged exact: %+v", r3.Match)
	}
	// Errors.
	bad := &nffg.Flowrule{Match: nffg.Match{InPort: nffg.NFPort("ghost", "1")}, Action: nffg.Action{Output: nffg.InfraPort("1")}}
	if _, err := TranslateRule(bad, nfPorts); err == nil {
		t.Fatal("unknown NF must fail")
	}
	bad2 := &nffg.Flowrule{Match: nffg.Match{InPort: nffg.InfraPort("xyz")}, Action: nffg.Action{Output: nffg.InfraPort("1")}}
	if _, err := TranslateRule(bad2, nfPorts); !errors.Is(err, ErrBadPort) {
		t.Fatalf("bad port: %v", err)
	}
}
