package openflow

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

// readFrame reads one frame from buf through Conn.Read, returning the bytes
// it consumed.
func readFrame(buf []byte) (*Message, int, error) {
	r := bytes.NewReader(buf)
	c := &Conn{br: bufio.NewReader(r)}
	m, err := c.Read()
	return m, len(buf) - r.Len() - c.br.Buffered(), err
}

func TestHeaderRoundtrip(t *testing.T) {
	m := &Message{Type: TypeHello, XID: 42, Body: []byte("hi")}
	buf := m.appendTo(nil)
	got, n, err := readFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if got.Type != TypeHello || got.XID != 42 || !bytes.Equal(got.Body, []byte("hi")) {
		t.Fatalf("roundtrip mangled: %+v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := readFrame([]byte{1, 2}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short buffer: %v", err)
	}
	bad := (&Message{Type: TypeHello}).appendTo(nil)
	bad[0] = 0x99
	if _, _, err := readFrame(bad); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
	trunc := (&Message{Type: TypeHello, Body: []byte("aaaa")}).appendTo(nil)
	if _, _, err := readFrame(trunc[:9]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body: %v", err)
	}
	short := (&Message{Type: TypeHello}).appendTo(nil)
	short[3] = headerLen - 1
	if _, _, err := readFrame(short); !errors.Is(err, ErrTruncated) {
		t.Fatalf("declared length below the header: %v", err)
	}
}

func TestFlowModRoundtrip(t *testing.T) {
	fm := &FlowMod{
		Cmd: FlowAdd, RuleID: "hop1@sw3", Priority: 100,
		InPort: 2, Tag: "chain-7", AnyTag: false,
		OutPort: 5, PushTag: "next", PopTag: true, Drop: false,
	}
	m := fm.Marshal(7)
	back, err := ParseFlowMod(m)
	if err != nil {
		t.Fatal(err)
	}
	if *back != *fm {
		t.Fatalf("roundtrip: got %+v want %+v", back, fm)
	}
	if _, err := ParseFlowMod(&Message{Type: TypeHello}); !errors.Is(err, ErrBadType) {
		t.Fatalf("type check: %v", err)
	}
}

func TestFeaturesReplyRoundtrip(t *testing.T) {
	fr := &FeaturesReply{DatapathID: "mn-sw1", NumTables: 1, Ports: []uint16{1, 2, 3, 4}}
	back, err := ParseFeaturesReply(fr.Marshal(1))
	if err != nil {
		t.Fatal(err)
	}
	if back.DatapathID != fr.DatapathID || len(back.Ports) != 4 || back.Ports[3] != 4 {
		t.Fatalf("roundtrip: %+v", back)
	}
}

func TestPacketInOutRoundtrip(t *testing.T) {
	pi := &PacketIn{InPort: 3, Tag: "t", Src: "sapA", Dst: "sapB", Size: 1500, Seq: 99}
	backIn, err := ParsePacketIn(pi.Marshal(5))
	if err != nil {
		t.Fatal(err)
	}
	if *backIn != *pi {
		t.Fatalf("packet-in roundtrip: %+v", backIn)
	}
	po := &PacketOut{OutPort: 1, Tag: "", Src: "sapB", Dst: "sapA", Size: 64, Seq: 1}
	backOut, err := ParsePacketOut(po.Marshal(6))
	if err != nil {
		t.Fatal(err)
	}
	if *backOut != *po {
		t.Fatalf("packet-out roundtrip: %+v", backOut)
	}
}

func TestStatsReplyRoundtrip(t *testing.T) {
	sr := &StatsReply{
		Ports: []PortStat{{Port: 1, RxPk: 10, TxPk: 20}, {Port: 2, RxPk: 5, TxPk: 0}},
		Flows: []FlowStat{{RuleID: "r1", Packets: 100, Bytes: 9999}},
	}
	back, err := ParseStatsReply(sr.Marshal(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Ports) != 2 || len(back.Flows) != 1 {
		t.Fatalf("lengths: %+v", back)
	}
	if back.Ports[0] != sr.Ports[0] || back.Flows[0] != sr.Flows[0] {
		t.Fatalf("contents: %+v", back)
	}
}

func TestErrorRoundtrip(t *testing.T) {
	e := &ErrorMsg{Code: 3, Reason: "no such port"}
	back, err := ParseError(e.Marshal(2))
	if err != nil {
		t.Fatal(err)
	}
	if *back != *e {
		t.Fatalf("roundtrip: %+v", back)
	}
}

func TestParseTruncatedBodies(t *testing.T) {
	fm := (&FlowMod{RuleID: "rule-with-a-long-name", Tag: "tag"}).Marshal(1)
	fm.Body = fm.Body[:3]
	if _, err := ParseFlowMod(fm); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated flowmod should fail: %v", err)
	}
	sr := (&StatsReply{Ports: []PortStat{{Port: 1}}}).Marshal(1)
	sr.Body = sr.Body[:4]
	if _, err := ParseStatsReply(sr); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated stats should fail: %v", err)
	}
}

// A peer's element count is not trusted: a body that declares 65 535
// elements and holds none parses to ErrTruncated and no elements, not to
// 65 535 zero entries.
func TestParseCountsPastTheBody(t *testing.T) {
	sr := &Message{Type: TypeStatsReply, Body: []byte{0xff, 0xff}}
	s, err := ParseStatsReply(sr)
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("stats reply with count ff ff and no ports: err %v, want ErrTruncated", err)
	}
	if len(s.Ports) != 0 || len(s.Flows) != 0 {
		t.Errorf("stats reply: %d ports, %d flows past a 2-byte body", len(s.Ports), len(s.Flows))
	}
	// Datapath ID "" (length 0), one table, 65 535 ports declared, none sent.
	fr := &Message{Type: TypeFeaturesReply, Body: []byte{0, 0, 1, 0xff, 0xff}}
	f, err := ParseFeaturesReply(fr)
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("features reply with count ff ff and no ports: err %v, want ErrTruncated", err)
	}
	if len(f.Ports) != 0 {
		t.Errorf("features reply: %d ports past a 5-byte body", len(f.Ports))
	}
	// One whole port and half of a second: the whole one survives.
	fr.Body = []byte{0, 0, 1, 0, 3, 0, 7, 0}
	if f, err = ParseFeaturesReply(fr); !errors.Is(err, ErrTruncated) || len(f.Ports) != 1 || f.Ports[0] != 7 {
		t.Errorf("features reply cut inside its second port: %v %v, want [7] and ErrTruncated", f.Ports, err)
	}
}

// Property: FlowMod marshal/parse is the identity for arbitrary field values.
func TestFlowModRoundtripProperty(t *testing.T) {
	f := func(cmd uint8, rule, tag, push string, prio, in, out uint16, anyTag, pop, drop bool) bool {
		fm := &FlowMod{
			Cmd: FlowModCmd(cmd % 3), RuleID: rule, Priority: prio,
			InPort: in, Tag: tag, AnyTag: anyTag,
			OutPort: out, PushTag: push, PopTag: pop, Drop: drop,
		}
		if len(rule) > 60000 || len(tag) > 60000 || len(push) > 60000 {
			return true // length prefix is uint16; out of scope
		}
		back, err := ParseFlowMod(fm.Marshal(1))
		return err == nil && *back == *fm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: reading an encoded message back is the identity over the framing
// layer.
func TestFramingRoundtripProperty(t *testing.T) {
	f := func(typ uint8, xid uint32, body []byte) bool {
		if len(body) > maxMsgLen-headerLen-1 {
			return true
		}
		m := &Message{Type: MsgType(typ % 13), XID: xid, Body: body}
		back, n, err := readFrame(m.appendTo(nil))
		if err != nil || n != headerLen+len(body) {
			return false
		}
		return back.Type == m.Type && back.XID == m.XID && bytes.Equal(back.Body, m.Body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadMessage: a switch is a network peer, so arbitrary bytes never
// panic Conn.Read or the parser of the message's type, and a flow-mod that
// parses re-encodes to a body that parses back equal.
func FuzzReadMessage(f *testing.F) {
	for _, m := range []*Message{
		{Type: TypeHello, XID: 1},
		(&FlowMod{Cmd: FlowAdd, RuleID: "hop1@sw3", Priority: 100, InPort: 2, Tag: "chain-7", MatchDst: "sapB", OutPort: 5, PushTag: "next", PopTag: true}).Marshal(2),
		(&FlowMod{Cmd: FlowDelete, RuleID: "hop1@sw3"}).Marshal(3),
		(&FeaturesReply{DatapathID: "sw1", NumTables: 1, Ports: []uint16{1, 2, 3}}).Marshal(4),
		(&PacketIn{InPort: 1, Tag: "t", Src: "sapA", Dst: "sapB", Size: 100, Seq: 7}).Marshal(5),
		(&PacketOut{OutPort: 2, Src: "sapA", Dst: "sapB", Size: 64}).Marshal(6),
		(&StatsReply{Ports: []PortStat{{Port: 1, RxPk: 3}}, Flows: []FlowStat{{RuleID: "r1", Packets: 3, Bytes: 300}}}).Marshal(7),
		(&ErrorMsg{Code: 3, Reason: "table full"}).Marshal(8),
	} {
		f.Add(m.appendTo(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &Conn{br: bufio.NewReader(bytes.NewReader(data))}
		for {
			m, err := c.Read()
			if err != nil {
				return
			}
			switch m.Type {
			case TypeFlowMod:
				fm, err := ParseFlowMod(m)
				if err != nil {
					continue
				}
				back, err := ParseFlowMod(fm.Marshal(m.XID))
				if err != nil {
					t.Fatalf("re-encoded %+v does not parse: %v", fm, err)
				}
				if *back != *fm {
					t.Fatalf("flow-mod round trip: got %+v, want %+v", back, fm)
				}
			case TypeFeaturesReply:
				// A port takes 2 bytes of the body.
				if f, _ := ParseFeaturesReply(m); 2*len(f.Ports) > len(m.Body) {
					t.Fatalf("features reply of %d bytes parsed to %d ports", len(m.Body), len(f.Ports))
				}
			case TypePacketIn:
				_, _ = ParsePacketIn(m)
			case TypePacketOut:
				_, _ = ParsePacketOut(m)
			case TypeStatsReply:
				// A port stat takes 18 bytes of the body, a flow stat at least 18.
				if s, _ := ParseStatsReply(m); 18*(len(s.Ports)+len(s.Flows)) > len(m.Body) {
					t.Fatalf("stats reply of %d bytes parsed to %d ports and %d flows", len(m.Body), len(s.Ports), len(s.Flows))
				}
			case TypeError:
				_, _ = ParseError(m)
			}
		}
	})
}
