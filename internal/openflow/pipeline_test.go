package openflow

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/dataplane"
)

// fakeSwitch is a scriptable protocol endpoint: it completes the controller
// handshake like a real agent but its reply behavior is configurable, so
// tests can produce rejections, interleaved replies and stalls that the
// well-behaved SwitchAgent never emits.
type fakeSwitch struct {
	conn *Conn
	dpid string

	// rejectRule, when set, returns a non-nil error reply for a flow-mod.
	rejectRule func(fm *FlowMod) *ErrorMsg
	// holdBarriers buffers this many barrier requests, then answers them in
	// REVERSE order (exercises xid correlation under reply reordering).
	holdBarriers int
	// stallBarriers swallows barrier requests entirely.
	stallBarriers bool

	mu       sync.Mutex
	flowMods int
}

func newFakeSwitch(t *testing.T, addr, dpid string) *fakeSwitch {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeSwitch{conn: NewConn(nc), dpid: dpid}
	if err := fs.conn.Write((&Message{Type: TypeHello, XID: 1}).appendTo(nil)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fs.conn.Close() })
	return fs
}

func (fs *fakeSwitch) run() {
	var held []uint32
	for {
		m, err := fs.conn.Read()
		if err != nil {
			return
		}
		switch m.Type {
		case TypeHello:
		case TypeFeaturesRequest:
			fr := &FeaturesReply{DatapathID: fs.dpid, NumTables: 1, Ports: []uint16{1, 2}}
			_ = fs.conn.Write(fr.Marshal(m.XID).appendTo(nil))
		case TypeFlowMod:
			fs.mu.Lock()
			fs.flowMods++
			fs.mu.Unlock()
			if fs.rejectRule != nil {
				if fm, err := ParseFlowMod(m); err == nil {
					if e := fs.rejectRule(fm); e != nil {
						_ = fs.conn.Write(e.Marshal(m.XID).appendTo(nil))
					}
				}
			}
		case TypeBarrierRequest:
			if fs.stallBarriers {
				continue
			}
			if fs.holdBarriers > 0 {
				held = append(held, m.XID)
				if len(held) == fs.holdBarriers {
					for i := len(held) - 1; i >= 0; i-- {
						_ = fs.conn.Write((&Message{Type: TypeBarrierReply, XID: held[i]}).appendTo(nil))
					}
					held = nil
				}
				continue
			}
			_ = fs.conn.Write((&Message{Type: TypeBarrierReply, XID: m.XID}).appendTo(nil))
		case TypeEchoRequest:
			_ = fs.conn.Write((&Message{Type: TypeEchoReply, XID: m.XID, Body: m.Body}).appendTo(nil))
		}
	}
}

func fakeController(t *testing.T) (*Controller, string) {
	t.Helper()
	ctrl := NewController()
	addr, err := ctrl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	return ctrl, addr
}

func addRule(id string) *FlowMod {
	return &FlowMod{Cmd: FlowAdd, RuleID: id, Priority: 10, InPort: 1, AnyTag: true, OutPort: 2}
}

// One delta, one barrier: the pipelined path must cost a single round-trip
// regardless of the number of rules, and every rule must still be applied by
// the time Flush returns.
func TestPipelineOneBarrierPerDelta(t *testing.T) {
	h := newHarness(t)
	p, err := h.ctrl.Pipeline("sw1")
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if err := p.Send(ctx, fmt.Sprintf("r%d", i), addRule(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.FlowMods != n || st.Barriers != 1 || st.WindowHighWater != n {
		t.Fatalf("stats: %+v", st)
	}
	if h.sw1.Table.Len() != n {
		t.Fatalf("table: %d rules, want %d", h.sw1.Table.Len(), n)
	}
	if c := h.ctrl.Counters(); c.FlowMods != n || c.Barriers != 1 {
		t.Fatalf("controller counters: %+v", c)
	}
}

// A delta larger than the window drains through intermediate barriers, and
// the high-water mark never exceeds the window.
func TestPipelineWindowOverflow(t *testing.T) {
	h := newHarness(t)
	p, err := h.ctrl.Pipeline("sw1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 2*DefaultWindow + 4
	for i := 0; i < n; i++ {
		if err := p.Send(ctx, fmt.Sprintf("r%d", i), addRule(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	// Two full windows and four more: a barrier before each window after
	// the first, plus the flush's.
	if st.Barriers != 3 {
		t.Fatalf("barriers: %d, want 3", st.Barriers)
	}
	if st.WindowHighWater != DefaultWindow {
		t.Fatalf("high water: %d, want %d", st.WindowHighWater, DefaultWindow)
	}
	if h.sw1.Table.Len() != n {
		t.Fatalf("table: %d rules", h.sw1.Table.Len())
	}
}

// Errors arriving mid-window — after later flow-mods were already streamed —
// must be attributed to the exact offending rules, and only those.
func TestPipelineErrorAttribution(t *testing.T) {
	ctrl, addr := fakeController(t)
	fs := newFakeSwitch(t, addr, "fake1")
	fs.rejectRule = func(fm *FlowMod) *ErrorMsg {
		if strings.HasPrefix(fm.RuleID, "bad") {
			return &ErrorMsg{Code: 3, Reason: "table full"}
		}
		return nil
	}
	go fs.run()
	if err := ctrl.WaitForSwitches(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	p, err := ctrl.Pipeline("fake1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rules := []string{"ok0", "bad1", "ok2", "ok3", "bad4", "ok5"}
	for _, r := range rules {
		if err := p.Send(ctx, r, addRule(r)); err != nil {
			t.Fatal(err)
		}
	}
	err = p.Flush(ctx)
	var de *DeltaError
	if !errors.As(err, &de) {
		t.Fatalf("want DeltaError, got %v", err)
	}
	if de.Datapath != "fake1" || len(de.Rules) != 2 {
		t.Fatalf("delta error: %+v", de)
	}
	if de.Rules[0].Rule != "bad1" || de.Rules[1].Rule != "bad4" {
		t.Fatalf("attribution: %+v", de.Rules)
	}
	if de.Rules[0].Code != 3 || de.Rules[0].Reason != "table full" {
		t.Fatalf("peer error not preserved: %+v", de.Rules[0])
	}
	// The failure is consumed: a fresh flush on the same pipeline is clean.
	if err := p.Flush(ctx); err != nil {
		t.Fatalf("second flush: %v", err)
	}
}

// Two concurrent pipelines whose barrier replies come back in reverse order:
// xid correlation must route each reply to its own requester.
func TestPipelineInterleavedReplies(t *testing.T) {
	ctrl, addr := fakeController(t)
	fs := newFakeSwitch(t, addr, "fake1")
	fs.holdBarriers = 2
	go fs.run()
	if err := ctrl.WaitForSwitches(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		p, err := ctrl.Pipeline("fake1")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, p *Pipeline) {
			defer wg.Done()
			r := fmt.Sprintf("p%d", i)
			if err := p.Send(ctx, r, addRule(r)); err != nil {
				errs[i] = err
				return
			}
			errs[i] = p.Flush(ctx)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pipeline %d: %v", i, err)
		}
	}
}

// A switch that stops answering barriers fails the delta with ErrTimeout
// after the configured request timeout instead of wedging forever.
func TestPipelineStalledSwitchTimesOut(t *testing.T) {
	ctrl, addr := fakeController(t)
	ctrl.RequestTimeout = 100 * time.Millisecond
	fs := newFakeSwitch(t, addr, "fake1")
	fs.stallBarriers = true
	go fs.run()
	if err := ctrl.WaitForSwitches(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	p, err := ctrl.Pipeline("fake1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := p.Send(ctx, "r0", addRule("r0")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = p.Flush(ctx)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timeout took %v, configured 100ms", elapsed)
	}
	// The synchronous path obeys the same bound.
	if err := ctrl.FlowMod(ctx, "fake1", addRule("r1")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("sync FlowMod: want ErrTimeout, got %v", err)
	}
}

// Cancellation is honored between sends: a canceled delta stops mid-stream,
// and the flow-mods it had queued are never written.
func TestPipelineCancelMidStream(t *testing.T) {
	h := newHarness(t)
	p, err := h.ctrl.Pipeline("sw1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 5; i++ {
		if err := p.Send(ctx, fmt.Sprintf("r%d", i), addRule(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if err := p.Send(ctx, "r5", addRule("r5")); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if err := p.Flush(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("flush after cancel: want context.Canceled, got %v", err)
	}
	// A barrier on the same session proves anything written was processed.
	if err := h.ctrl.FlowMod(context.Background(), "sw1", addRule("after")); err != nil {
		t.Fatal(err)
	}
	if got := h.sw1.Table.Len(); got != 1 {
		t.Fatalf("table: %d rules, want only the one programmed after the cancel", got)
	}
}

// replyReadyCtx is a canceled context whose Done waits until a reply sits in
// one of the datapath's pending channels, so the reply-versus-cancel select
// of a request sees both cases ready — the race a switch answering at once
// makes possible. Its Err reads nil until Done is called, so the flush gets
// as far as writing its barrier: a context canceled while the request is in
// flight.
type replyReadyCtx struct {
	context.Context
	dp     *Datapath
	waited *atomic.Bool
}

func (c replyReadyCtx) Err() error {
	if !c.waited.Load() {
		return nil
	}
	return c.Context.Err()
}

func (c replyReadyCtx) Done() <-chan struct{} {
	defer c.waited.Store(true)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		ready := false
		c.dp.pending.Range(func(_, v any) bool {
			ready = len(v.(chan *Message)) > 0
			return !ready
		})
		if ready {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	return c.Context.Done()
}

// A canceled flush never reports success, even when the switch's barrier
// reply is already there when the controller looks.
func TestCanceledFlushFailsDespiteReadyReply(t *testing.T) {
	ctrl, addr := fakeController(t)
	go newFakeSwitch(t, addr, "fake1").run()
	if err := ctrl.WaitForSwitches(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	dp, err := ctrl.Datapath("fake1")
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 20; i++ {
		ctx := replyReadyCtx{Context: canceled, dp: dp, waited: new(atomic.Bool)}
		p, err := ctrl.Pipeline("fake1")
		if err != nil {
			t.Fatal(err)
		}
		r := fmt.Sprintf("r%d", i)
		if err := p.Send(context.Background(), r, addRule(r)); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("flush %d on a canceled context: want context.Canceled, got %v", i, err)
		}
	}
}

// Storm test (run with -race): many concurrent deltas on the same datapath,
// each through its own pipeline, must neither corrupt state nor lose rules.
func TestPipelineConcurrentDeltaStorm(t *testing.T) {
	h := newHarness(t)
	const (
		deltas = 8
		rules  = 50
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, deltas)
	for g := 0; g < deltas; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := h.ctrl.Pipeline("sw1")
			if err != nil {
				errs[g] = err
				return
			}
			for i := 0; i < rules; i++ {
				id := fmt.Sprintf("g%d-r%d", g, i)
				if err := p.Send(ctx, id, addRule(id)); err != nil {
					errs[g] = err
					return
				}
			}
			errs[g] = p.Flush(ctx)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("delta %d: %v", g, err)
		}
	}
	if got := h.sw1.Table.Len(); got != deltas*rules {
		t.Fatalf("table: %d rules, want %d", got, deltas*rules)
	}
}

// countingConn counts the writes made through it.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// A delta's flow-mods leave with their barrier in one write: Send writes
// nothing, Flush writes once.
func TestPipelineOneWritePerFlush(t *testing.T) {
	sw := dataplane.NewSwitch(dataplane.NewEngine(), "sw1")
	ctrl := NewController()
	t.Cleanup(ctrl.Close)
	ctrlSide, swSide := net.Pipe()
	cc := &countingConn{Conn: ctrlSide}
	go ctrl.serve(NewConn(cc))
	ag := NewSwitchAgent("sw1", sw, []uint16{1, 2})
	if err := ag.ConnectConn(swSide); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ag.Close)
	if err := ctrl.WaitForSwitches(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	p, err := ctrl.Pipeline("sw1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before := cc.writes.Load()
	const n = 100
	for i := 0; i < n; i++ {
		r := fmt.Sprintf("r%d", i)
		if err := p.Send(ctx, r, addRule(r)); err != nil {
			t.Fatal(err)
		}
	}
	if got := cc.writes.Load() - before; got != 0 {
		t.Fatalf("Send wrote %d times, want 0", got)
	}
	if err := p.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := cc.writes.Load() - before; got != 1 {
		t.Fatalf("a %d-rule delta took %d writes, want 1", n, got)
	}
	if got := sw.Table.Len(); got != n {
		t.Fatalf("table: %d rules, want %d", got, n)
	}
	if st := p.Stats(); st.FlowMods != n || st.Barriers != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// Send encodes straight into the pipeline's buffer: what it allocates is the
// rule's attribution entry and its inflight-map slot (3, measured with
// go1.24), not a message, a body and an encoded copy per flow-mod.
func TestPipelineSendAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned in plain builds only")
	}
	// The 1001 sends stay inside DefaultWindow, so no barrier runs.
	p := &Pipeline{c: NewController(), dp: &Datapath{ID: "sw1"}}
	fm := addRule("r1")
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() { _ = p.Send(ctx, "r1", fm) }); n > 3 {
		t.Errorf("Pipeline.Send: %v allocations, want at most 3", n)
	}
}
