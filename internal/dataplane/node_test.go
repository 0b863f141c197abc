package dataplane

import (
	"strings"
	"testing"
)

// chainNet builds: sapA -(1)- sw1 -(2)- sw2 -(1)- sapB, with an NF "fw"
// hanging off sw1 port 3.
type chainNet struct {
	eng        *Engine
	sapA, sapB *SAPHost
	sw1, sw2   *Switch
	fw         *NFHost
}

func buildChainNet(t *testing.T, filter *Filter) *chainNet {
	t.Helper()
	eng := NewEngine()
	n := &chainNet{
		eng:  eng,
		sapA: NewSAPHost(eng, "A"),
		sapB: NewSAPHost(eng, "B"),
		sw1:  NewSwitch(eng, "sw1"),
		sw2:  NewSwitch(eng, "sw2"),
	}
	if filter == nil {
		filter = &Filter{Mark: "fw", LatencyMs: 0.5}
	}
	n.fw = NewNFHost(eng, "fw", filter)
	for _, err := range []error{
		Connect(eng, n.sapA, 1, n.sw1, 1, 100, 1),
		Connect(eng, n.sw1, 2, n.sw2, 2, 1000, 2),
		Connect(eng, n.sw2, 1, n.sapB, 1, 100, 1),
		Connect(eng, n.sw1, 3, n.fw, 1, 0, 0.1), // NF attach: infinite bw
		Connect(eng, n.sw1, 4, n.fw, 2, 0, 0.1),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Steering: A->B traffic enters sw1 port 1, goes through fw, then out.
	n.sw1.Table.Install(&Rule{ID: "in", Match: Match{InPort: 1, AnyTag: true}, Action: Action{OutPort: 3}})
	n.sw1.Table.Install(&Rule{ID: "fromNF", Match: Match{InPort: 4, AnyTag: true}, Action: Action{OutPort: 2, PushTag: "c1"}})
	n.sw2.Table.Install(&Rule{ID: "toB", Match: Match{InPort: 2, Tag: "c1"}, Action: Action{OutPort: 1, PopTag: true}})
	return n
}

func TestEndToEndSteering(t *testing.T) {
	n := buildChainNet(t, nil)
	sent := n.sapA.Send("B", 1000)
	n.eng.RunToIdle()
	got := n.sapB.Received()
	if len(got) != 1 {
		t.Fatalf("want 1 packet at B, got %d (sent dropped=%q)", len(got), sent.Dropped)
	}
	p := got[0]
	trace := strings.Join(p.Trace, ",")
	for _, want := range []string{"sap:A", "sw1", "nf:fw", "fw", "sw2", "sap:B"} {
		if !strings.Contains(trace, want) {
			t.Fatalf("trace missing %q: %s", want, trace)
		}
	}
	if p.Tag != "" {
		t.Fatalf("tag should be popped at egress, got %q", p.Tag)
	}
	lat := n.sapB.Latencies()
	if len(lat) != 1 || lat[0] <= 0 {
		t.Fatalf("latency should be positive: %v", lat)
	}
}

func TestTableMissDrops(t *testing.T) {
	n := buildChainNet(t, nil)
	n.sw2.Table = NewFlowTable()
	p := n.sapA.Send("B", 1000)
	n.eng.RunToIdle()
	if len(n.sapB.Received()) != 0 {
		t.Fatal("cleared table should drop")
	}
	if p.Dropped == "" || !strings.Contains(p.Dropped, "sw2") {
		t.Fatalf("drop reason should name sw2: %q", p.Dropped)
	}
	if n.sw2.Dropped() != 1 {
		t.Fatalf("sw2 drop counter: %d", n.sw2.Dropped())
	}
}

func TestMissHandlerPunt(t *testing.T) {
	n := buildChainNet(t, nil)
	n.sw2.Table = NewFlowTable()
	var punted *Packet
	n.sw2.MissHandler = func(p *Packet, inPort int) { punted = p }
	n.sapA.Send("B", 1000)
	n.eng.RunToIdle()
	if punted == nil {
		t.Fatal("miss handler should receive the packet")
	}
	if n.sw2.Dropped() != 0 {
		t.Fatal("punted packets are not drops")
	}
}

func TestFilterDrops(t *testing.T) {
	deny := &Filter{Mark: "fw", Allow: func(p *Packet) bool { return p.Flow.Dst != "B" }}
	n := buildChainNet(t, deny)
	n.sapA.Send("B", 1000)
	n.eng.RunToIdle()
	if len(n.sapB.Received()) != 0 {
		t.Fatal("firewall should drop B-bound traffic")
	}
	passed, dropped := deny.Counters()
	if passed != 0 || dropped != 1 {
		t.Fatalf("filter counters: passed=%d dropped=%d", passed, dropped)
	}
}

func TestLatencyAccumulates(t *testing.T) {
	n := buildChainNet(t, nil)
	n.sapA.Send("B", 1000)
	n.eng.RunToIdle()
	lat := n.sapB.Latencies()[0]
	// Propagation alone: 1 + 0.1 + 0.1 + 2 + 1 = 4.2ms, plus NF 0.5ms and
	// serialization on finite links.
	if lat < 4.7 {
		t.Fatalf("latency %v below physical floor", lat)
	}
}

func TestLinkSerializationDelay(t *testing.T) {
	eng := NewEngine()
	a := NewSAPHost(eng, "a")
	b := NewSAPHost(eng, "b")
	// 1 Mbit/s, zero propagation: a 1250-byte packet takes 10ms to serialize.
	if err := Connect(eng, a, 1, b, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	a.Send("b", 1250)
	eng.RunToIdle()
	lat := b.Latencies()
	if len(lat) != 1 {
		t.Fatal("packet lost")
	}
	if lat[0] < 9.99 || lat[0] > 10.01 {
		t.Fatalf("serialization should be 10ms, got %v", lat[0])
	}
}

func TestLinkBacklogQueueing(t *testing.T) {
	eng := NewEngine()
	a := NewSAPHost(eng, "a")
	b := NewSAPHost(eng, "b")
	if err := Connect(eng, a, 1, b, 1, 1, 0); err != nil { // 10ms per 1250B pkt
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		a.Send("b", 1250)
	}
	eng.RunToIdle()
	lat := b.Latencies()
	if len(lat) != 3 {
		t.Fatalf("want 3 packets, got %d", len(lat))
	}
	// Back-to-back sends at t=0: arrivals at 10, 20, 30ms.
	for i, want := range []float64{10, 20, 30} {
		if lat[i] < want-0.01 || lat[i] > want+0.01 {
			t.Fatalf("packet %d latency %v, want ~%v", i, lat[i], want)
		}
	}
}

func TestTeeCopies(t *testing.T) {
	eng := NewEngine()
	src := NewSAPHost(eng, "src")
	dst := NewSAPHost(eng, "dst")
	tap := NewSAPHost(eng, "tap")
	tee := NewNFHost(eng, "tee", &Tee{CopyPorts: []int{3}, Mark: "tee"})
	for _, err := range []error{
		Connect(eng, src, 1, tee, 1, 0, 0),
		Connect(eng, tee, 2, dst, 1, 0, 0),
		Connect(eng, tee, 3, tap, 1, 0, 0),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	src.Send("dst", 100)
	eng.RunToIdle()
	if len(dst.Received()) != 1 || len(tap.Received()) != 1 {
		t.Fatalf("tee should deliver to both: dst=%d tap=%d", len(dst.Received()), len(tap.Received()))
	}
	if tee.Processed() != 1 {
		t.Fatalf("tee processed %d", tee.Processed())
	}
}

func TestTransformer(t *testing.T) {
	eng := NewEngine()
	src := NewSAPHost(eng, "src")
	dst := NewSAPHost(eng, "dst")
	nat := NewNFHost(eng, "nat", &Transformer{Mark: "nat", Apply: func(p *Packet) { p.Size /= 2 }})
	_ = Connect(eng, src, 1, nat, 1, 0, 0)
	_ = Connect(eng, nat, 2, dst, 1, 0, 0)
	src.Send("dst", 1000)
	eng.RunToIdle()
	got := dst.Received()
	if len(got) != 1 || got[0].Size != 500 {
		t.Fatalf("transformer should halve size, got %+v", got)
	}
}

func TestDoubleAttachFails(t *testing.T) {
	eng := NewEngine()
	a := NewSwitch(eng, "a")
	b := NewSwitch(eng, "b")
	c := NewSwitch(eng, "c")
	if err := Connect(eng, a, 1, b, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := Connect(eng, a, 1, c, 1, 0, 0); err == nil {
		t.Fatal("re-wiring a used port must fail")
	}
}

func TestPortCounters(t *testing.T) {
	n := buildChainNet(t, nil)
	n.sapA.Send("B", 1000)
	n.eng.RunToIdle()
	var rx1, tx2 uint64
	for _, ps := range n.sw1.Ports() {
		if ps.Port == 1 {
			rx1 = ps.RxPk
		}
		if ps.Port == 2 {
			tx2 = ps.TxPk
		}
	}
	if rx1 != 1 || tx2 != 1 {
		t.Fatalf("sw1 counters rx1=%d tx2=%d", rx1, tx2)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		n := buildChainNet(t, nil)
		for i := 0; i < 10; i++ {
			n.sapA.Send("B", 500+i*10)
		}
		n.eng.RunToIdle()
		var trace []string
		for _, p := range n.sapB.Received() {
			trace = append(trace, strings.Join(p.Trace, "|"))
		}
		return trace
	}
	a, b := run(), run()
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("simulation must be deterministic")
	}
}
