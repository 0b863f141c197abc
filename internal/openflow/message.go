// Package openflow implements a compact OpenFlow-style control protocol:
// versioned binary framing over TCP with hello/features handshake, flow
// modification, packet-in/packet-out and statistics — the control channel the
// paper's POX controller and Mininet domain speak.
//
// The wire format follows the OpenFlow shape (fixed header: version, type,
// length, xid; big-endian) but carries this reproduction's match/action model
// (in-port + service tag) instead of the full 12-tuple, which is exactly the
// subset the UNIFY BiS-BiS abstraction programs.
package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the protocol version byte (mirrors OF1.3's 0x04).
const Version byte = 0x04

// MsgType enumerates message types.
type MsgType byte

// Message types.
const (
	TypeHello MsgType = iota
	TypeError
	TypeEchoRequest
	TypeEchoReply
	TypeFeaturesRequest
	TypeFeaturesReply
	TypeFlowMod
	TypePacketIn
	TypePacketOut
	TypeStatsRequest
	TypeStatsReply
	TypeBarrierRequest
	TypeBarrierReply
)

func (t MsgType) String() string {
	names := [...]string{"HELLO", "ERROR", "ECHO_REQ", "ECHO_REPLY", "FEATURES_REQ",
		"FEATURES_REPLY", "FLOW_MOD", "PACKET_IN", "PACKET_OUT", "STATS_REQ",
		"STATS_REPLY", "BARRIER_REQ", "BARRIER_REPLY"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("TYPE(%d)", byte(t))
}

// headerLen is the fixed header size: version(1) type(1) length(2) xid(4).
const headerLen = 8

// maxMsgLen bounds a single message (defensive against corrupt frames).
const maxMsgLen = 1 << 20

// Errors produced by the codec and connection layer.
var (
	ErrBadVersion = errors.New("openflow: bad version")
	ErrTruncated  = errors.New("openflow: truncated message")
	ErrTooLarge   = errors.New("openflow: message too large")
	ErrBadType    = errors.New("openflow: unexpected message type")
)

// Message is a decoded frame: the header plus the type-specific body, which
// remains encoded until the caller parses it with the typed Parse helpers.
type Message struct {
	Type MsgType
	XID  uint32
	Body []byte
}

// appendTo appends the message, header and body, to b.
func (m *Message) appendTo(b []byte) []byte {
	start := len(b)
	b = append(beginFrame(b, m.Type, m.XID), m.Body...)
	endFrame(b, start)
	return b
}

// beginFrame appends a header whose length endFrame fills in once the body
// follows it, so a body is encoded straight into the wire buffer.
func beginFrame(b []byte, t MsgType, xid uint32) []byte {
	b = append(b, Version, byte(t), 0, 0)
	return binary.BigEndian.AppendUint32(b, xid)
}

// endFrame sets the length of the frame that starts at b[start].
func endFrame(b []byte, start int) {
	binary.BigEndian.PutUint16(b[start+2:start+4], uint16(len(b)-start))
}

// --- body encoding helpers -------------------------------------------------

type writer struct{ b []byte }

func (w *writer) u8(v byte)    { w.b = append(w.b, v) }
func (w *writer) u16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) str(s string) { w.u16(uint16(len(s))); w.b = append(w.b, s...) }

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.b) {
		r.err = ErrTruncated
		return false
	}
	return true
}
func (r *reader) u8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}
func (r *reader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}
func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}
func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}
func (r *reader) bool() bool { return r.u8() != 0 }
func (r *reader) str() string {
	n := int(r.u16())
	if !r.need(n) {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// --- typed bodies ------------------------------------------------------------

// FlowModCmd selects the flow-mod operation.
type FlowModCmd byte

// Flow-mod commands.
const (
	FlowAdd FlowModCmd = iota
	FlowDelete
	FlowDeleteStrict
)

// FlowMod programs one rule: the BiS-BiS match/action subset.
type FlowMod struct {
	Cmd      FlowModCmd
	RuleID   string
	Priority uint16
	InPort   uint16
	Tag      string
	AnyTag   bool
	MatchDst string
	OutPort  uint16
	PushTag  string
	PopTag   bool
	Drop     bool
}

// Marshal encodes the flow-mod into a message.
func (f *FlowMod) Marshal(xid uint32) *Message {
	return &Message{Type: TypeFlowMod, XID: xid, Body: f.appendBody(nil)}
}

// appendTo appends the flow-mod as a complete message, header and body, to b.
func (f *FlowMod) appendTo(b []byte, xid uint32) []byte {
	start := len(b)
	b = f.appendBody(beginFrame(b, TypeFlowMod, xid))
	endFrame(b, start)
	return b
}

// appendBody appends the flow-mod's body to b.
func (f *FlowMod) appendBody(b []byte) []byte {
	w := writer{b: b}
	w.u8(byte(f.Cmd))
	w.str(f.RuleID)
	w.u16(f.Priority)
	w.u16(f.InPort)
	w.str(f.Tag)
	w.bool(f.AnyTag)
	w.str(f.MatchDst)
	w.u16(f.OutPort)
	w.str(f.PushTag)
	w.bool(f.PopTag)
	w.bool(f.Drop)
	return w.b
}

// ParseFlowMod decodes a flow-mod body.
func ParseFlowMod(m *Message) (*FlowMod, error) {
	if m.Type != TypeFlowMod {
		return nil, fmt.Errorf("%w: %s", ErrBadType, m.Type)
	}
	r := reader{b: m.Body}
	f := &FlowMod{
		Cmd:      FlowModCmd(r.u8()),
		RuleID:   r.str(),
		Priority: r.u16(),
		InPort:   r.u16(),
		Tag:      r.str(),
		AnyTag:   r.bool(),
		MatchDst: r.str(),
		OutPort:  r.u16(),
		PushTag:  r.str(),
		PopTag:   r.bool(),
		Drop:     r.bool(),
	}
	return f, r.err
}

// FeaturesReply describes a switch: datapath ID and its port numbers.
type FeaturesReply struct {
	DatapathID string
	NumTables  uint8
	Ports      []uint16
}

// Marshal encodes the features reply.
func (f *FeaturesReply) Marshal(xid uint32) *Message {
	var w writer
	w.str(f.DatapathID)
	w.u8(f.NumTables)
	w.u16(uint16(len(f.Ports)))
	for _, p := range f.Ports {
		w.u16(p)
	}
	return &Message{Type: TypeFeaturesReply, XID: xid, Body: w.b}
}

// ParseFeaturesReply decodes a features reply body.
func ParseFeaturesReply(m *Message) (*FeaturesReply, error) {
	if m.Type != TypeFeaturesReply {
		return nil, fmt.Errorf("%w: %s", ErrBadType, m.Type)
	}
	r := reader{b: m.Body}
	f := &FeaturesReply{DatapathID: r.str(), NumTables: r.u8()}
	// The count is the peer's word: stop at the first element the body does
	// not hold rather than append zeros up to it.
	n := int(r.u16())
	for i := 0; i < n; i++ {
		p := r.u16()
		if r.err != nil {
			break
		}
		f.Ports = append(f.Ports, p)
	}
	return f, r.err
}

// PacketIn reports an unmatched packet to the controller.
type PacketIn struct {
	InPort uint16
	Tag    string
	Src    string
	Dst    string
	Size   uint32
	Seq    uint64
}

// Marshal encodes the packet-in.
func (p *PacketIn) Marshal(xid uint32) *Message {
	var w writer
	w.u16(p.InPort)
	w.str(p.Tag)
	w.str(p.Src)
	w.str(p.Dst)
	w.u32(p.Size)
	w.u64(p.Seq)
	return &Message{Type: TypePacketIn, XID: xid, Body: w.b}
}

// ParsePacketIn decodes a packet-in body.
func ParsePacketIn(m *Message) (*PacketIn, error) {
	if m.Type != TypePacketIn {
		return nil, fmt.Errorf("%w: %s", ErrBadType, m.Type)
	}
	r := reader{b: m.Body}
	p := &PacketIn{InPort: r.u16(), Tag: r.str(), Src: r.str(), Dst: r.str(), Size: r.u32(), Seq: r.u64()}
	return p, r.err
}

// PacketOut injects a packet out of a port.
type PacketOut struct {
	OutPort uint16
	Tag     string
	Src     string
	Dst     string
	Size    uint32
	Seq     uint64
}

// Marshal encodes the packet-out.
func (p *PacketOut) Marshal(xid uint32) *Message {
	var w writer
	w.u16(p.OutPort)
	w.str(p.Tag)
	w.str(p.Src)
	w.str(p.Dst)
	w.u32(p.Size)
	w.u64(p.Seq)
	return &Message{Type: TypePacketOut, XID: xid, Body: w.b}
}

// ParsePacketOut decodes a packet-out body.
func ParsePacketOut(m *Message) (*PacketOut, error) {
	if m.Type != TypePacketOut {
		return nil, fmt.Errorf("%w: %s", ErrBadType, m.Type)
	}
	r := reader{b: m.Body}
	p := &PacketOut{OutPort: r.u16(), Tag: r.str(), Src: r.str(), Dst: r.str(), Size: r.u32(), Seq: r.u64()}
	return p, r.err
}

// PortStat is one port's counters in a stats reply.
type PortStat struct {
	Port uint16
	RxPk uint64
	TxPk uint64
}

// FlowStat is one rule's counters in a stats reply.
type FlowStat struct {
	RuleID  string
	Packets uint64
	Bytes   uint64
}

// StatsReply carries port and flow counters.
type StatsReply struct {
	Ports []PortStat
	Flows []FlowStat
}

// Marshal encodes the stats reply.
func (s *StatsReply) Marshal(xid uint32) *Message {
	var w writer
	w.u16(uint16(len(s.Ports)))
	for _, p := range s.Ports {
		w.u16(p.Port)
		w.u64(p.RxPk)
		w.u64(p.TxPk)
	}
	w.u16(uint16(len(s.Flows)))
	for _, f := range s.Flows {
		w.str(f.RuleID)
		w.u64(f.Packets)
		w.u64(f.Bytes)
	}
	return &Message{Type: TypeStatsReply, XID: xid, Body: w.b}
}

// ParseStatsReply decodes a stats reply body.
func ParseStatsReply(m *Message) (*StatsReply, error) {
	if m.Type != TypeStatsReply {
		return nil, fmt.Errorf("%w: %s", ErrBadType, m.Type)
	}
	r := reader{b: m.Body}
	s := &StatsReply{}
	// Counts are the peer's word: each loop stops at the first element the
	// body does not hold (and a short read leaves every later count 0).
	np := int(r.u16())
	for i := 0; i < np; i++ {
		p := PortStat{Port: r.u16(), RxPk: r.u64(), TxPk: r.u64()}
		if r.err != nil {
			break
		}
		s.Ports = append(s.Ports, p)
	}
	nf := int(r.u16())
	for i := 0; i < nf; i++ {
		f := FlowStat{RuleID: r.str(), Packets: r.u64(), Bytes: r.u64()}
		if r.err != nil {
			break
		}
		s.Flows = append(s.Flows, f)
	}
	return s, r.err
}

// ErrorMsg reports a failure back to the peer.
type ErrorMsg struct {
	Code   uint16
	Reason string
}

// Marshal encodes the error.
func (e *ErrorMsg) Marshal(xid uint32) *Message {
	var w writer
	w.u16(e.Code)
	w.str(e.Reason)
	return &Message{Type: TypeError, XID: xid, Body: w.b}
}

// ParseError decodes an error body.
func ParseError(m *Message) (*ErrorMsg, error) {
	if m.Type != TypeError {
		return nil, fmt.Errorf("%w: %s", ErrBadType, m.Type)
	}
	r := reader{b: m.Body}
	e := &ErrorMsg{Code: r.u16(), Reason: r.str()}
	return e, r.err
}
