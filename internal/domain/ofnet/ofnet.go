// Package ofnet is the OpenFlow southbound of the domains whose switches an
// OpenFlow controller programs: the Mininet domain and the legacy SDN domain
// of the paper's Figure 1. One adapter serves the technology, not one per
// domain: a domain builds a Fabric over its emulated network and hands it
// flowrule changes; the Fabric translates them and streams them to the
// switches as pipelined flow-mods.
package ofnet

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/domain/emunet"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/obs"
	"github.com/unify-repro/escape/internal/openflow"
)

// Fabric is one OpenFlow controller plus one switch agent per switch of an
// emulated network, every agent connected and handshaken.
type Fabric struct {
	name   string // the owning domain's error prefix
	ctrl   *openflow.Controller
	agents []*openflow.SwitchAgent
}

// New starts a controller on loopback and connects an agent for every switch
// of net, announcing the numeric ports substrate lists for it. It returns
// once every switch has completed its handshake. Errors carry the prefix
// name (the owning domain's).
func New(name string, net *emunet.Net, substrate *nffg.NFFG) (*Fabric, error) {
	f := &Fabric{name: name, ctrl: openflow.NewController()}
	addr, err := f.ctrl.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("%s: controller: %w", name, err)
	}
	for _, swID := range net.SwitchIDs() {
		sw, _ := net.Switch(swID)
		var ports []uint16
		for _, p := range substrate.Infras.Get(swID).Ports {
			if v, err := strconv.Atoi(p.ID); err == nil {
				ports = append(ports, uint16(v))
			}
		}
		ag := openflow.NewSwitchAgent(string(swID), sw, ports)
		if err := ag.Connect(addr); err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: agent %s: %w", name, swID, err)
		}
		f.agents = append(f.agents, ag)
	}
	if err := f.ctrl.WaitForSwitches(len(f.agents), 5*time.Second); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: handshake: %w", name, err)
	}
	return f, nil
}

// Close stops every agent and the controller.
func (f *Fabric) Close() {
	for _, ag := range f.agents {
		ag.Close()
	}
	f.ctrl.Close()
}

// Program applies flowrule deletions and additions, both keyed by switch.
// Every addition is translated first, its NF port references resolved
// through nfPorts, so a rule that cannot be translated fails the call before
// anything is sent. Then each touched datapath gets one goroutine and one
// pipeline: its deletions stream before its additions (freeing match slots
// before rewrites), closed by a single barrier. A failed call may leave
// some additions flushed; deleting a rule a datapath never got is a no-op,
// so the leaf's undo takes them back with a second call. Flow-mods,
// barriers and the window high-water are recorded into sb.
func (f *Fabric) Program(ctx context.Context, sb *core.SouthboundRecorder, del, add map[nffg.ID][]*nffg.Flowrule, nfPorts func(nffg.ID) (map[string]int, error)) error {
	if len(del) == 0 && len(add) == 0 {
		return nil
	}
	ops := make(map[nffg.ID][]*openflow.FlowMod, len(del)+len(add))
	for infra, rules := range del {
		for _, fr := range rules {
			ops[infra] = append(ops[infra], &openflow.FlowMod{Cmd: openflow.FlowDelete, RuleID: fr.ID})
		}
	}
	for infra, rules := range add {
		for _, fr := range rules {
			r, err := emunet.TranslateRule(fr, nfPorts)
			if err != nil {
				return fmt.Errorf("%s: translate rule %s: %w", f.name, fr.ID, err)
			}
			ops[infra] = append(ops[infra], &openflow.FlowMod{
				Cmd: openflow.FlowAdd, RuleID: r.ID, Priority: uint16(r.Priority),
				InPort: uint16(r.Match.InPort), Tag: r.Match.Tag, AnyTag: r.Match.AnyTag,
				MatchDst: string(r.Match.Dst),
				OutPort:  uint16(r.Action.OutPort), PushTag: r.Action.PushTag, PopTag: r.Action.PopTag,
			})
		}
	}
	return f.fanOut(ctx, sb, ops)
}

// fanOut flushes each datapath's flow-mods on a goroutine of its own and
// returns the first error.
func (f *Fabric) fanOut(ctx context.Context, sb *core.SouthboundRecorder, ops map[nffg.ID][]*openflow.FlowMod) error {
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for infra, fms := range ops {
		wg.Add(1)
		go func(infra nffg.ID, fms []*openflow.FlowMod) {
			defer wg.Done()
			if err := f.flush(ctx, sb, infra, fms); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(infra, fms)
	}
	wg.Wait()
	return firstErr
}

// flush streams one datapath's flow-mods through its own pipeline and waits
// for the closing barrier.
func (f *Fabric) flush(ctx context.Context, sb *core.SouthboundRecorder, infra nffg.ID, fms []*openflow.FlowMod) (err error) {
	span, sctx := obs.StartSpan(ctx, "openflow.flush",
		"datapath", string(infra), "flowmods", strconv.Itoa(len(fms)))
	defer func() { span.EndWith(err) }()
	p, err := f.ctrl.Pipeline(string(infra))
	if err != nil {
		return fmt.Errorf("%s: datapath %s: %w", f.name, infra, err)
	}
	defer func() {
		st := p.Stats()
		sb.AddFlowMods(st.FlowMods)
		sb.AddBarriers(st.Barriers)
		sb.ObserveWindow(st.WindowHighWater)
	}()
	for _, fm := range fms {
		if err := p.Send(sctx, fm.RuleID, fm); err != nil {
			return fmt.Errorf("%s: rule %s on %s: %w", f.name, fm.RuleID, infra, err)
		}
	}
	if err := p.Flush(sctx); err != nil {
		return fmt.Errorf("%s: datapath %s: %w", f.name, infra, err)
	}
	return nil
}

// Stats pulls flow and port counters from one switch over its OpenFlow
// session, honoring ctx.
func (f *Fabric) Stats(ctx context.Context, sw nffg.ID) (*openflow.StatsReply, error) {
	return f.ctrl.Stats(ctx, string(sw))
}
