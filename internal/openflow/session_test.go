package openflow

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/dataplane"
)

// harness: a controller plus two switches (line: A - sw1 - sw2 - B) whose
// agents dial the controller over real TCP on loopback.
type harness struct {
	ctrl       *Controller
	eng        *dataplane.Engine
	sapA, sapB *dataplane.SAPHost
	sw1, sw2   *dataplane.Switch
	ag1, ag2   *SwitchAgent
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{ctrl: NewController(), eng: dataplane.NewEngine()}
	addr, err := h.ctrl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.ctrl.Close)

	h.sapA = dataplane.NewSAPHost(h.eng, "A")
	h.sapB = dataplane.NewSAPHost(h.eng, "B")
	h.sw1 = dataplane.NewSwitch(h.eng, "sw1")
	h.sw2 = dataplane.NewSwitch(h.eng, "sw2")
	for _, err := range []error{
		dataplane.Connect(h.eng, h.sapA, 1, h.sw1, 1, 100, 1),
		dataplane.Connect(h.eng, h.sw1, 2, h.sw2, 2, 1000, 1),
		dataplane.Connect(h.eng, h.sw2, 1, h.sapB, 1, 100, 1),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	h.ag1 = NewSwitchAgent("sw1", h.sw1, []uint16{1, 2})
	h.ag2 = NewSwitchAgent("sw2", h.sw2, []uint16{1, 2})
	for _, ag := range []*SwitchAgent{h.ag1, h.ag2} {
		if err := ag.Connect(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ag.Close)
	}
	if err := h.ctrl.WaitForSwitches(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return h
}

// datapaths lists the controller's connected switch IDs, sorted.
func datapaths(c *Controller) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.dps))
	for id := range c.dps {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func TestHandshakeRegistersDatapaths(t *testing.T) {
	h := newHarness(t)
	dps := datapaths(h.ctrl)
	if len(dps) != 2 || dps[0] != "sw1" || dps[1] != "sw2" {
		t.Fatalf("datapaths: %v", dps)
	}
	dp, err := h.ctrl.Datapath("sw1")
	if err != nil {
		t.Fatal(err)
	}
	if len(dp.Ports) != 2 {
		t.Fatalf("ports: %v", dp.Ports)
	}
}

func TestFlowModProgramsPath(t *testing.T) {
	h := newHarness(t)
	mods := []struct {
		dpid string
		fm   *FlowMod
	}{
		{"sw1", &FlowMod{Cmd: FlowAdd, RuleID: "f1", Priority: 10, InPort: 1, AnyTag: true, OutPort: 2, PushTag: "c"}},
		{"sw2", &FlowMod{Cmd: FlowAdd, RuleID: "f2", Priority: 10, InPort: 2, Tag: "c", OutPort: 1, PopTag: true}},
	}
	for _, md := range mods {
		if err := h.ctrl.FlowMod(context.Background(), md.dpid, md.fm); err != nil {
			t.Fatalf("flowmod %s: %v", md.dpid, err)
		}
	}
	// FlowMod waits on barrier, so rules must already be visible.
	if h.sw1.Table.Len() != 1 || h.sw2.Table.Len() != 1 {
		t.Fatalf("tables not programmed: %d/%d", h.sw1.Table.Len(), h.sw2.Table.Len())
	}
	h.sapA.Send("B", 500)
	h.eng.RunToIdle()
	got := h.sapB.Received()
	if len(got) != 1 {
		t.Fatalf("want 1 delivery, got %d", len(got))
	}
	if got[0].Tag != "" {
		t.Fatalf("tag should be popped: %q", got[0].Tag)
	}
}

func TestFlowDelete(t *testing.T) {
	h := newHarness(t)
	if err := h.ctrl.FlowMod(context.Background(), "sw1", &FlowMod{Cmd: FlowAdd, RuleID: "r", InPort: 1, AnyTag: true, OutPort: 2}); err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.FlowMod(context.Background(), "sw1", &FlowMod{Cmd: FlowDelete, RuleID: "r"}); err != nil {
		t.Fatal(err)
	}
	if h.sw1.Table.Len() != 0 {
		t.Fatalf("rule should be deleted, table has %d", h.sw1.Table.Len())
	}
}

func TestPacketInDelivery(t *testing.T) {
	h := newHarness(t)
	var mu sync.Mutex
	var got []*PacketIn
	h.ctrl.OnPacketIn = func(dpid string, pi *PacketIn) {
		mu.Lock()
		got = append(got, pi)
		mu.Unlock()
	}
	// No rules installed: the first packet misses at sw1.
	h.sapA.Send("B", 700)
	h.eng.RunToIdle()
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no packet-in arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	pi := got[0]
	mu.Unlock()
	if pi.Src != "A" || pi.Dst != "B" || pi.InPort != 1 || pi.Size != 700 {
		t.Fatalf("packet-in contents: %+v", pi)
	}
}

func TestStatsCollection(t *testing.T) {
	h := newHarness(t)
	if err := h.ctrl.FlowMod(context.Background(), "sw1", &FlowMod{Cmd: FlowAdd, RuleID: "r", InPort: 1, AnyTag: true, OutPort: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h.sapA.Send("B", 100)
	}
	h.eng.RunToIdle()
	sr, err := h.ctrl.Stats(context.Background(), "sw1")
	if err != nil {
		t.Fatal(err)
	}
	var ruleStat *FlowStat
	for i := range sr.Flows {
		if sr.Flows[i].RuleID == "r" {
			ruleStat = &sr.Flows[i]
		}
	}
	if ruleStat == nil || ruleStat.Packets != 5 || ruleStat.Bytes != 500 {
		t.Fatalf("flow stats: %+v", sr.Flows)
	}
	foundRx := false
	for _, p := range sr.Ports {
		if p.Port == 1 && p.RxPk == 5 {
			foundRx = true
		}
	}
	if !foundRx {
		t.Fatalf("port stats: %+v", sr.Ports)
	}
}

func TestEchoLiveness(t *testing.T) {
	h := newHarness(t)
	dp, err := h.ctrl.Datapath("sw1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ctrl.request(context.Background(), dp, &Message{Type: TypeEchoRequest}, TypeEchoReply); err != nil {
		t.Fatal(err)
	}
}

func TestPacketOutInjection(t *testing.T) {
	h := newHarness(t)
	// Inject at sw2 out port 1 (toward sapB) without any rules.
	err := h.ctrl.PacketOut("sw2", &PacketOut{OutPort: 1, Src: "ctrl", Dst: "B", Size: 42, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		h.eng.RunToIdle()
		if len(h.sapB.Received()) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("packet-out never delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got := h.sapB.Received()[0]
	if got.Flow.Src != "ctrl" || got.Size != 42 {
		t.Fatalf("injected packet mangled: %+v", got)
	}
}

func TestUnknownDatapath(t *testing.T) {
	h := newHarness(t)
	if err := h.ctrl.FlowMod(context.Background(), "ghost", &FlowMod{}); err == nil || !strings.Contains(err.Error(), "unknown datapath") {
		t.Fatalf("want unknown datapath error, got %v", err)
	}
}

func TestAgentDisconnectDeregisters(t *testing.T) {
	h := newHarness(t)
	h.ag1.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if len(datapaths(h.ctrl)) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sw1 should deregister, have %v", datapaths(h.ctrl))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
