// Package sdnctl implements the paper's legacy OpenFlow network domain:
// "the control of legacy OpenFlow networks is realized by a POX controller
// and a corresponding adapter module". The domain is forwarding-only — it
// cannot host NFs, it can only steer traffic between its SAPs — which is
// exactly what makes it a useful transit segment in multi-domain chains.
package sdnctl

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/dataplane"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/domain/emunet"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/obs"
	"github.com/unify-repro/escape/internal/openflow"
)

// Domain is the legacy SDN domain: POX-like controller + adapter.
type Domain struct {
	*core.LocalOrchestrator
	net    *emunet.Net
	ctrl   *openflow.Controller
	agents []*openflow.SwitchAgent
}

// Config assembles the domain.
type Config struct {
	// ID names the domain (default "sdn").
	ID string
	// Substrate lists the legacy switches (forwarding-only: no supported NF
	// types) and the SAPs they interconnect.
	Substrate *nffg.NFFG
	// Engine is the shared dataplane engine.
	Engine *dataplane.Engine
	// Borders lists inter-domain SAPs.
	Borders map[nffg.ID]bool
	// Virtualizer selects the exported view (default SingleBiSBiS).
	Virtualizer core.Virtualizer
}

// New starts the controller, connects every switch agent and builds the
// adapter's local orchestrator.
func New(cfg Config) (*Domain, error) {
	if cfg.ID == "" {
		cfg.ID = "sdn"
	}
	if cfg.Engine == nil {
		cfg.Engine = dataplane.NewEngine()
	}
	for _, id := range cfg.Substrate.InfraIDs() {
		if len(cfg.Substrate.Infras.Get(id).Supported) != 0 {
			return nil, fmt.Errorf("sdnctl: node %s supports NFs; legacy switches are forwarding-only", id)
		}
	}
	net, err := emunet.Build(cfg.Engine, cfg.Substrate, cfg.Borders)
	if err != nil {
		return nil, fmt.Errorf("sdnctl: build net: %w", err)
	}
	d := &Domain{net: net, ctrl: openflow.NewController()}
	addr, err := d.ctrl.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("sdnctl: controller: %w", err)
	}
	for _, swID := range net.SwitchIDs() {
		sw, _ := net.Switch(swID)
		var ports []uint16
		for _, p := range cfg.Substrate.Infras.Get(swID).Ports {
			var v int
			if _, err := fmt.Sscanf(p.ID, "%d", &v); err == nil {
				ports = append(ports, uint16(v))
			}
		}
		ag := openflow.NewSwitchAgent(string(swID), sw, ports)
		if err := ag.Connect(addr); err != nil {
			d.Close()
			return nil, fmt.Errorf("sdnctl: agent %s: %w", swID, err)
		}
		d.agents = append(d.agents, ag)
	}
	if err := d.ctrl.WaitForSwitches(len(d.agents), 5*time.Second); err != nil {
		d.Close()
		return nil, fmt.Errorf("sdnctl: handshake: %w", err)
	}
	lo, err := core.NewLocalOrchestrator(core.LocalConfig{
		ID:           cfg.ID,
		Substrate:    cfg.Substrate,
		Virtualizer:  cfg.Virtualizer,
		Programmer:   core.ProgrammerFunc(d.commit),
		Capabilities: []domain.Capability{domain.CapForwarding},
	})
	if err != nil {
		d.Close()
		return nil, err
	}
	d.LocalOrchestrator = lo
	return d, nil
}

// Net exposes the emulated network.
func (d *Domain) Net() *emunet.Net { return d.net }

// Close stops the control plane.
func (d *Domain) Close() {
	for _, ag := range d.agents {
		ag.Close()
	}
	if d.ctrl != nil {
		d.ctrl.Close()
	}
}

// ofOp pairs a flow-mod with the flowrule it implements for error
// attribution.
type ofOp struct {
	rule string
	fm   *openflow.FlowMod
}

// commit programs flowrules through the POX-like controller: the whole delta
// is translated first (fail-fast, nothing sent on a bad rule), then each
// datapath's flow-mods stream through one pipeline — deletes before adds —
// with all datapaths in parallel and a single barrier per datapath closing
// the delta. NF operations are rejected: this domain has no compute.
func (d *Domain) commit(ctx context.Context, delta *nffg.Delta, _ *nffg.NFFG) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(delta.AddNFs) > 0 || len(delta.DelNFs) > 0 {
		return fmt.Errorf("sdnctl: domain cannot host NFs")
	}
	sb := d.Southbound()
	start := time.Now()
	defer func() { sb.ObserveDelta(time.Since(start)) }()

	// Translate everything up front; the send loop below cannot hit a
	// translation error halfway through programming a datapath.
	ops := map[nffg.ID][]ofOp{}
	for infra, rules := range delta.DelRules {
		for _, f := range rules {
			ops[infra] = append(ops[infra], ofOp{rule: f.ID, fm: &openflow.FlowMod{Cmd: openflow.FlowDelete, RuleID: f.ID}})
		}
	}
	for infra, rules := range delta.AddRules {
		for _, f := range rules {
			r, err := emunet.TranslateRule(f, func(nf nffg.ID) (map[string]int, error) {
				return nil, fmt.Errorf("sdnctl: rule references NF %s in forwarding-only domain", nf)
			})
			if err != nil {
				return err
			}
			ops[infra] = append(ops[infra], ofOp{rule: f.ID, fm: &openflow.FlowMod{
				Cmd: openflow.FlowAdd, RuleID: r.ID, Priority: uint16(r.Priority),
				InPort: uint16(r.Match.InPort), Tag: r.Match.Tag, AnyTag: r.Match.AnyTag,
				MatchDst: string(r.Match.Dst),
				OutPort:  uint16(r.Action.OutPort), PushTag: r.Action.PushTag, PopTag: r.Action.PopTag,
			}})
		}
	}
	if len(ops) == 0 {
		return nil
	}

	// Parallel per-datapath fan-out: deletes were appended before adds, so
	// each datapath still frees match slots before rewrites.
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var errs []error
	for infra, batch := range ops {
		wg.Add(1)
		go func(infra nffg.ID, batch []ofOp) {
			defer wg.Done()
			span, sctx := obs.StartSpan(ctx, "openflow.flush",
				"datapath", string(infra), "flowmods", fmt.Sprint(len(batch)))
			fail := func(err error) {
				span.SetErr(err)
				errMu.Lock()
				errs = append(errs, err)
				errMu.Unlock()
			}
			defer span.End()
			p, err := d.ctrl.Pipeline(string(infra))
			if err != nil {
				fail(fmt.Errorf("sdnctl: datapath %s: %w", infra, err))
				return
			}
			defer func() {
				st := p.Stats()
				sb.AddFlowMods(st.FlowMods)
				sb.AddBarriers(st.Barriers)
				sb.ObserveWindow(st.WindowHighWater)
			}()
			for _, op := range batch {
				if err := p.Send(sctx, op.rule, op.fm); err != nil {
					fail(fmt.Errorf("sdnctl: rule %s on %s: %w", op.rule, infra, err))
					return
				}
			}
			if err := p.Flush(sctx); err != nil {
				fail(fmt.Errorf("sdnctl: datapath %s: %w", infra, err))
			}
		}(infra, batch)
	}
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}
