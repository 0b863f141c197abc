package openflow

import (
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"github.com/unify-repro/escape/internal/dataplane"
)

// SwitchAgent is the switch-side protocol endpoint: it exposes one
// dataplane.Switch to a controller, translating FlowMod into flow-table
// mutations and table misses into PacketIn. This is the role OpenVSwitch or
// the Mininet switches play toward POX in the original demo.
type SwitchAgent struct {
	DatapathID string
	sw         *dataplane.Switch
	ports      []uint16

	mu     sync.Mutex
	conn   *Conn
	closed atomic.Bool
	xid    atomic.Uint32
}

// NewSwitchAgent binds an agent to a switch. ports lists the switch's port
// numbers announced in the features reply.
func NewSwitchAgent(dpid string, sw *dataplane.Switch, ports []uint16) *SwitchAgent {
	return &SwitchAgent{DatapathID: dpid, sw: sw, ports: ports}
}

// Connect dials the controller, performs the hello/features handshake
// asynchronously and starts the message loop. The returned error covers only
// the dial; protocol failures surface by closing the session.
func (a *SwitchAgent) Connect(addr string) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("openflow: agent dial: %w", err)
	}
	return a.ConnectConn(nc)
}

// ConnectConn attaches the agent to an already-established transport (tests
// and benchmarks inject latency or fault wrappers this way) and starts the
// handshake and message loop.
func (a *SwitchAgent) ConnectConn(nc net.Conn) error {
	conn := NewConn(nc)
	a.mu.Lock()
	a.conn = conn
	a.mu.Unlock()
	// Wire the table-miss path to packet-in.
	a.sw.MissHandler = func(p *dataplane.Packet, inPort int) {
		pi := &PacketIn{InPort: uint16(inPort), Tag: p.Tag, Src: string(p.Flow.Src), Dst: string(p.Flow.Dst), Size: uint32(p.Size), Seq: p.Seq}
		_ = conn.Write(pi.Marshal(a.xid.Add(1)).appendTo(nil))
	}
	if err := conn.Write((&Message{Type: TypeHello, XID: a.xid.Add(1)}).appendTo(nil)); err != nil {
		return err
	}
	go a.loop(conn)
	return nil
}

// Close shuts the session down.
func (a *SwitchAgent) Close() {
	if a.closed.Swap(true) {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.conn != nil {
		_ = a.conn.Close()
	}
}

func (a *SwitchAgent) loop(conn *Conn) {
	for {
		m, err := conn.Read()
		if err != nil {
			if !a.closed.Load() {
				log.Printf("openflow agent %s: read: %v", a.DatapathID, err)
			}
			return
		}
		if err := a.handle(conn, m); err != nil {
			_ = conn.Write((&ErrorMsg{Code: 1, Reason: err.Error()}).Marshal(m.XID).appendTo(nil))
		}
	}
}

func (a *SwitchAgent) handle(conn *Conn, m *Message) error {
	switch m.Type {
	case TypeHello:
		return nil
	case TypeEchoRequest:
		return conn.Write((&Message{Type: TypeEchoReply, XID: m.XID, Body: m.Body}).appendTo(nil))
	case TypeFeaturesRequest:
		fr := &FeaturesReply{DatapathID: a.DatapathID, NumTables: 1, Ports: a.ports}
		return conn.Write(fr.Marshal(m.XID).appendTo(nil))
	case TypeFlowMod:
		fm, err := ParseFlowMod(m)
		if err != nil {
			return err
		}
		a.applyFlowMod(fm)
		return nil
	case TypeBarrierRequest:
		return conn.Write((&Message{Type: TypeBarrierReply, XID: m.XID}).appendTo(nil))
	case TypeStatsRequest:
		return conn.Write(a.stats().Marshal(m.XID).appendTo(nil))
	case TypePacketOut:
		po, err := ParsePacketOut(m)
		if err != nil {
			return err
		}
		p := dataplane.NewPacket(dataplane.Endpoint(po.Src), dataplane.Endpoint(po.Dst), po.Seq, int(po.Size))
		p.Tag = po.Tag
		a.sw.Inject(p, int(po.OutPort))
		return nil
	default:
		return fmt.Errorf("unhandled %s", m.Type)
	}
}

func (a *SwitchAgent) applyFlowMod(fm *FlowMod) {
	switch fm.Cmd {
	case FlowAdd:
		a.sw.Table.Install(&dataplane.Rule{
			ID:       fm.RuleID,
			Priority: int(fm.Priority),
			Match:    dataplane.Match{InPort: int(fm.InPort), Tag: fm.Tag, AnyTag: fm.AnyTag, Dst: dataplane.Endpoint(fm.MatchDst)},
			Action:   dataplane.Action{OutPort: int(fm.OutPort), PushTag: fm.PushTag, PopTag: fm.PopTag, Drop: fm.Drop},
		})
	case FlowDelete:
		if fm.RuleID != "" {
			a.sw.Table.Remove(fm.RuleID)
		} else {
			a.sw.Table.RemoveByMatch(dataplane.Match{InPort: int(fm.InPort), Tag: fm.Tag, AnyTag: fm.AnyTag})
		}
	case FlowDeleteStrict:
		a.sw.Table.RemoveByMatch(dataplane.Match{InPort: int(fm.InPort), Tag: fm.Tag, AnyTag: fm.AnyTag, Dst: dataplane.Endpoint(fm.MatchDst)})
	}
}

func (a *SwitchAgent) stats() *StatsReply {
	sr := &StatsReply{}
	for _, ps := range a.sw.Ports() {
		sr.Ports = append(sr.Ports, PortStat{Port: uint16(ps.Port), RxPk: ps.RxPk, TxPk: ps.TxPk})
	}
	for _, r := range a.sw.Table.Rules() {
		pk, by := r.Counters()
		sr.Flows = append(sr.Flows, FlowStat{RuleID: r.ID, Packets: pk, Bytes: by})
	}
	return sr
}
