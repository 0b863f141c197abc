package openflow

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// DefaultWindow is the in-flight window of every Pipeline: the number of
// flow-mods that may be streamed before an intermediate barrier drains the
// datapath. Large enough that a 1000-rule delta costs a single barrier
// round-trip, small enough to bound the error attribution map and the
// unacknowledged byte backlog per datapath.
const DefaultWindow = 4096

// RuleError attributes one peer-reported failure to the rule whose flow-mod
// caused it.
type RuleError struct {
	// Rule is the attribution handle passed to Send (the flowrule ID).
	Rule string
	// Code/Reason mirror the peer's OpenFlow error message.
	Code   uint16
	Reason string
}

func (e RuleError) Error() string {
	return fmt.Sprintf("rule %s: peer error %d: %s", e.Rule, e.Code, e.Reason)
}

// DeltaError collects every rule the datapath rejected during one pipelined
// delta. It is returned by Pipeline.Flush so a multi-rule failure still names
// each offending rule.
type DeltaError struct {
	Datapath string
	Rules    []RuleError
}

func (e *DeltaError) Error() string {
	parts := make([]string, len(e.Rules))
	for i, r := range e.Rules {
		parts[i] = r.Error()
	}
	return fmt.Sprintf("openflow: datapath %s rejected %d flow-mod(s): %s",
		e.Datapath, len(e.Rules), strings.Join(parts, "; "))
}

// SendStats are one pipeline's cumulative counters.
type SendStats struct {
	// FlowMods counts flow-mods written.
	FlowMods uint64
	// Barriers counts barrier round-trips (1 per flush on the happy path;
	// more only when the delta overran the in-flight window).
	Barriers uint64
	// WindowHighWater is the maximum number of un-barriered in-flight
	// flow-mods observed.
	WindowHighWater uint64
}

// pipeRule is the error-attribution entry registered under a flow-mod's xid
// while it is in flight. The controller's read loop resolves peer errors
// through it without knowing about pipelines.
type pipeRule struct {
	p    *Pipeline
	rule string
}

func (r *pipeRule) record(e *ErrorMsg) {
	r.p.errMu.Lock()
	r.p.errs = append(r.p.errs, RuleError{Rule: r.rule, Code: e.Code, Reason: e.Reason})
	r.p.errMu.Unlock()
}

// Pipeline streams flow-mods to one datapath without per-message barriers:
// the delta costs one barrier round-trip instead of one per rule, and one
// write. Send encodes each xid-tracked flow-mod into the pipeline's buffer;
// Flush appends a single BarrierRequest and writes the whole buffer at once,
// then reports every rejected rule as a DeltaError. Asynchronous peer errors
// are still attributed to the exact rule through the xids.
//
// A Pipeline is owned by one delta; concurrent pipelines on the same
// datapath are safe (xids are globally unique, and each flush is one write
// under the connection's write lock). A single Pipeline must not be used from
// multiple goroutines concurrently.
type Pipeline struct {
	c  *Controller
	dp *Datapath

	buf         []byte   // encoded flow-mods not yet written
	outstanding int      // flow-mods since the last barrier
	xids        []uint32 // inflight registrations not yet cleared
	stats       SendStats

	// errMu guards errs, which the controller read loop appends to.
	errMu sync.Mutex
	errs  []RuleError
}

// Pipeline opens a pipelined programming channel to one datapath.
func (c *Controller) Pipeline(dpid string) (*Pipeline, error) {
	dp, err := c.Datapath(dpid)
	if err != nil {
		return nil, err
	}
	return &Pipeline{c: c, dp: dp}, nil
}

// Send queues one flow-mod for the next barrier's write. rule is the
// attribution handle reported back if the peer rejects this message. When
// the in-flight window is full an intermediate barrier writes and drains the
// window first, so Send may block for one round-trip; otherwise it writes
// nothing. On a canceled ctx Send returns its error and drops every queued
// flow-mod unwritten: rules an earlier barrier wrote stay on the switch.
func (p *Pipeline) Send(ctx context.Context, rule string, fm *FlowMod) error {
	if err := ctx.Err(); err != nil {
		p.reset()
		return err
	}
	if p.outstanding >= DefaultWindow {
		if err := p.barrier(ctx); err != nil {
			return err
		}
	}
	xid := p.c.xid.Add(1)
	p.dp.inflight.Store(xid, &pipeRule{p: p, rule: rule})
	p.xids = append(p.xids, xid)
	p.buf = fm.appendTo(p.buf, xid)
	p.outstanding++
	if hw := uint64(p.outstanding); hw > p.stats.WindowHighWater {
		p.stats.WindowHighWater = hw
	}
	return nil
}

// barrier writes the queued flow-mods and one BarrierRequest in one write,
// waits for the barrier's reply and clears the inflight window. The barrier
// reply proves every earlier message was processed (the agent handles its
// session sequentially), so any error for an earlier flow-mod has already
// been recorded by the read loop when the reply arrives.
func (p *Pipeline) barrier(ctx context.Context) error {
	xid := p.c.xid.Add(1)
	_, err := p.c.exchange(ctx, p.dp, xid, TypeBarrierReply, func() error {
		p.buf = (&Message{Type: TypeBarrierRequest, XID: xid}).appendTo(p.buf)
		p.stats.FlowMods += uint64(p.outstanding)
		p.stats.Barriers++
		p.c.flowMods.Add(uint64(p.outstanding))
		p.c.barriers.Add(1)
		return p.c.write(p.dp, p.buf)
	})
	p.reset()
	return err
}

// reset forgets the window: its queued bytes and its xid registrations.
func (p *Pipeline) reset() {
	for _, xid := range p.xids {
		p.dp.inflight.Delete(xid)
	}
	p.xids = p.xids[:0]
	p.buf = p.buf[:0]
	p.outstanding = 0
}

// Flush writes the queued flow-mods with the delta's barrier (if anything is
// queued), waits for the datapath to drain, and returns every rule the peer
// rejected as a *DeltaError. A nil return guarantees all sent flow-mods are
// applied. On a canceled ctx Flush returns its error and writes nothing.
func (p *Pipeline) Flush(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		p.reset()
		return err
	}
	if p.outstanding > 0 {
		if err := p.barrier(ctx); err != nil {
			return err
		}
	}
	p.errMu.Lock()
	errs := p.errs
	p.errs = nil
	p.errMu.Unlock()
	if len(errs) == 0 {
		return nil
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Rule < errs[j].Rule })
	return &DeltaError{Datapath: p.dp.ID, Rules: errs}
}

// Stats reports the pipeline's counters.
func (p *Pipeline) Stats() SendStats { return p.stats }
