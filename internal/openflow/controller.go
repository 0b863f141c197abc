package openflow

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNoDatapath is returned for operations on unknown switches.
var ErrNoDatapath = errors.New("openflow: unknown datapath")

// ErrTimeout is returned when a request/reply exchange expires.
var ErrTimeout = errors.New("openflow: request timed out")

// DefaultRequestTimeout bounds one request/reply exchange (and one write)
// when Controller.RequestTimeout is left zero. A stalled switch fails the
// exchange with ErrTimeout instead of wedging the caller (and whatever
// commit lock the caller holds) forever.
const DefaultRequestTimeout = 5 * time.Second

// Datapath is a connected switch from the controller's perspective.
type Datapath struct {
	ID    string
	Ports []uint16

	conn    *Conn
	pending sync.Map // xid -> chan *Message
	// inflight maps the xid of every un-barriered pipelined flow-mod to its
	// attribution entry, so asynchronous OpenFlow errors (which carry the
	// offending xid) land on the exact rule that caused them.
	inflight sync.Map // xid -> *pipeRule
}

// ControllerCounters are the controller's cumulative southbound send
// counters (both the synchronous FlowMod path and pipelines).
type ControllerCounters struct {
	// FlowMods counts flow modification messages written.
	FlowMods uint64
	// Barriers counts barrier requests written.
	Barriers uint64
}

// Controller is the controller-side library (the role POX plays in the
// paper's legacy-SDN domain): it accepts switch connections, handshakes, and
// offers synchronous flow programming, pipelined flow programming (see
// Pipeline) and statistics collection.
type Controller struct {
	ln     net.Listener
	xid    atomic.Uint32
	closed atomic.Bool

	mu  sync.Mutex
	dps map[string]*Datapath
	// waiters signalled when a datapath completes its handshake.
	waiters []chan string

	flowMods atomic.Uint64
	barriers atomic.Uint64

	// RequestTimeout bounds every request/reply exchange and every message
	// write (0 = DefaultRequestTimeout). Set before issuing requests.
	RequestTimeout time.Duration

	// OnPacketIn, when set, receives table-miss notifications.
	OnPacketIn func(dpid string, pi *PacketIn)
}

// NewController returns an unstarted controller.
func NewController() *Controller {
	return &Controller{dps: map[string]*Datapath{}}
}

// Counters reports the cumulative send counters.
func (c *Controller) Counters() ControllerCounters {
	return ControllerCounters{FlowMods: c.flowMods.Load(), Barriers: c.barriers.Load()}
}

// timeout resolves the configured request timeout.
func (c *Controller) timeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	return DefaultRequestTimeout
}

// write sends encoded messages in one write, with the request timeout as a
// write deadline, so a peer that stopped draining its socket cannot block the
// sender forever.
func (c *Controller) write(dp *Datapath, b []byte) error {
	_ = dp.conn.SetWriteDeadline(time.Now().Add(c.timeout()))
	if err := dp.conn.Write(b); err != nil {
		return fmt.Errorf("%w: write to %s: %v", ErrTimeout, dp.ID, err)
	}
	return nil
}

// Listen binds the controller to addr ("127.0.0.1:0" for ephemeral) and
// starts accepting switches. It returns the bound address.
func (c *Controller) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("openflow: controller listen: %w", err)
	}
	c.ln = ln
	go c.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the controller and all sessions.
func (c *Controller) Close() {
	if c.closed.Swap(true) {
		return
	}
	if c.ln != nil {
		_ = c.ln.Close()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, dp := range c.dps {
		_ = dp.conn.Close()
	}
}

// Datapath returns the ports of a connected switch.
func (c *Controller) Datapath(id string) (*Datapath, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dp, ok := c.dps[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoDatapath, id)
	}
	return dp, nil
}

// WaitForSwitches blocks until n switches have completed their handshake or
// the timeout elapses.
func (c *Controller) WaitForSwitches(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		have := len(c.dps)
		var ch chan string
		if have < n {
			ch = make(chan string, 1)
			c.waiters = append(c.waiters, ch)
		}
		c.mu.Unlock()
		if have >= n {
			return nil
		}
		select {
		case <-ch:
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("%w: %d/%d switches after %v", ErrTimeout, have, n, timeout)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: waiting for %d switches", ErrTimeout, n)
		}
	}
}

// FlowMod sends a flow modification and waits for a barrier, guaranteeing
// the rule is applied when it returns. This is the one-RTT-per-rule
// synchronous path; deltas should use Pipeline instead. ctx and the
// controller's RequestTimeout both bound the exchange.
func (c *Controller) FlowMod(ctx context.Context, dpid string, fm *FlowMod) error {
	dp, err := c.Datapath(dpid)
	if err != nil {
		return err
	}
	if err := c.write(dp, fm.appendTo(nil, c.xid.Add(1))); err != nil {
		return err
	}
	c.flowMods.Add(1)
	c.barriers.Add(1)
	_, err = c.request(ctx, dp, &Message{Type: TypeBarrierRequest}, TypeBarrierReply)
	return err
}

// Stats fetches port and flow counters from a switch.
func (c *Controller) Stats(ctx context.Context, dpid string) (*StatsReply, error) {
	dp, err := c.Datapath(dpid)
	if err != nil {
		return nil, err
	}
	m, err := c.request(ctx, dp, &Message{Type: TypeStatsRequest}, TypeStatsReply)
	if err != nil {
		return nil, err
	}
	return ParseStatsReply(m)
}

// PacketOut injects a packet at a switch port.
func (c *Controller) PacketOut(dpid string, po *PacketOut) error {
	dp, err := c.Datapath(dpid)
	if err != nil {
		return err
	}
	return c.write(dp, po.Marshal(c.xid.Add(1)).appendTo(nil))
}

// request sends m under a fresh xid and waits for the reply of type want.
func (c *Controller) request(ctx context.Context, dp *Datapath, m *Message, want MsgType) (*Message, error) {
	m.XID = c.xid.Add(1)
	return c.exchange(ctx, dp, m.XID, want, func() error { return c.write(dp, m.appendTo(nil)) })
}

// exchange registers a pending reply under xid, calls send, which writes the
// request carrying xid, and waits for the reply of type want. The reply is
// registered before the request leaves, so a fast peer cannot answer first.
func (c *Controller) exchange(ctx context.Context, dp *Datapath, xid uint32, want MsgType, send func() error) (*Message, error) {
	ch := make(chan *Message, 1)
	dp.pending.Store(xid, ch)
	defer dp.pending.Delete(xid)
	if err := send(); err != nil {
		return nil, err
	}
	timer := time.NewTimer(c.timeout())
	defer timer.Stop()
	var reply *Message
	select {
	case reply = <-ch:
	case <-ctx.Done():
	case <-timer.C:
		return nil, fmt.Errorf("%w: %s from %s after %v", ErrTimeout, want, dp.ID, c.timeout())
	}
	// select picks at random among ready cases: a reply that raced a
	// canceled context must not report success to the canceled caller.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if reply.Type == TypeError {
		e, _ := ParseError(reply)
		return nil, fmt.Errorf("openflow: peer error %d: %s", e.Code, e.Reason)
	}
	if reply.Type != want {
		return nil, fmt.Errorf("%w: got %s want %s", ErrBadType, reply.Type, want)
	}
	return reply, nil
}

func (c *Controller) acceptLoop() {
	for {
		nc, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go c.serve(NewConn(nc))
	}
}

func (c *Controller) serve(conn *Conn) {
	// Handshake: expect hello, send hello + features request.
	m, err := conn.Read()
	if err != nil || m.Type != TypeHello {
		_ = conn.Close()
		return
	}
	if err := conn.Write((&Message{Type: TypeHello, XID: c.xid.Add(1)}).appendTo(nil)); err != nil {
		_ = conn.Close()
		return
	}
	frXID := c.xid.Add(1)
	if err := conn.Write((&Message{Type: TypeFeaturesRequest, XID: frXID}).appendTo(nil)); err != nil {
		_ = conn.Close()
		return
	}
	var dp *Datapath
	for {
		m, err := conn.Read()
		if err != nil {
			if dp != nil {
				c.mu.Lock()
				delete(c.dps, dp.ID)
				c.mu.Unlock()
			} else {
				_ = conn.Close()
			}
			return
		}
		if dp == nil {
			if m.Type != TypeFeaturesReply {
				continue
			}
			fr, err := ParseFeaturesReply(m)
			if err != nil {
				_ = conn.Close()
				return
			}
			dp = &Datapath{ID: fr.DatapathID, Ports: fr.Ports, conn: conn}
			c.mu.Lock()
			c.dps[dp.ID] = dp
			ws := c.waiters
			c.waiters = nil
			c.mu.Unlock()
			for _, w := range ws {
				select {
				case w <- dp.ID:
				default:
				}
			}
			continue
		}
		if ch, ok := dp.pending.Load(m.XID); ok {
			ch.(chan *Message) <- m
			continue
		}
		switch m.Type {
		case TypePacketIn:
			if c.OnPacketIn != nil {
				pi, err := ParsePacketIn(m)
				if err == nil {
					c.OnPacketIn(dp.ID, pi)
				}
			}
		case TypeEchoRequest:
			_ = conn.Write((&Message{Type: TypeEchoReply, XID: m.XID, Body: m.Body}).appendTo(nil))
		case TypeError:
			e, _ := ParseError(m)
			// Pipelined flow-mods do not wait for replies; an error carrying
			// a tracked xid is attributed to the exact rule that caused it
			// and surfaces from that pipeline's next barrier.
			if v, ok := dp.inflight.LoadAndDelete(m.XID); ok {
				v.(*pipeRule).record(e)
				continue
			}
			log.Printf("openflow controller: async error from %s: %d %s", dp.ID, e.Code, e.Reason)
		}
	}
}
