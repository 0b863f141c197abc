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
	buf := m.Encode()
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
	bad := (&Message{Type: TypeHello}).Encode()
	bad[0] = 0x99
	if _, _, err := readFrame(bad); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
	trunc := (&Message{Type: TypeHello, Body: []byte("aaaa")}).Encode()
	if _, _, err := readFrame(trunc[:9]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body: %v", err)
	}
	short := (&Message{Type: TypeHello}).Encode()
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

// Property: reading Encode(m) back is the identity over the framing layer.
func TestFramingRoundtripProperty(t *testing.T) {
	f := func(typ uint8, xid uint32, body []byte) bool {
		if len(body) > maxMsgLen-headerLen-1 {
			return true
		}
		m := &Message{Type: MsgType(typ % 13), XID: xid, Body: body}
		back, n, err := readFrame(m.Encode())
		if err != nil || n != headerLen+len(body) {
			return false
		}
		return back.Type == m.Type && back.XID == m.XID && bytes.Equal(back.Body, m.Body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
