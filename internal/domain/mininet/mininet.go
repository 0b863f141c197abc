// Package mininet implements the paper's Mininet-based infrastructure
// domain: an emulated SDN network whose NFs run as isolated Click processes,
// "orchestrated by a dedicated ESCAPEv2 entity via NETCONF and OpenFlow
// control channels". Both control channels are real protocol sessions over
// loopback TCP — NF lifecycle travels as NETCONF actions, flowrules as
// OpenFlow flow-mods — so swapping in external infrastructure means
// re-pointing two addresses.
package mininet

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/dataplane"
	"github.com/unify-repro/escape/internal/domain/emunet"
	"github.com/unify-repro/escape/internal/domain/mininet/click"
	"github.com/unify-repro/escape/internal/netconf"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/obs"
	"github.com/unify-repro/escape/internal/openflow"
)

// Domain is the Mininet technology domain: a local orchestrator whose
// programmer drives the emulated network through NETCONF and OpenFlow.
type Domain struct {
	*core.LocalOrchestrator

	net    *emunet.Net
	ctrl   *openflow.Controller
	agents []*openflow.SwitchAgent
	ncSrv  *netconf.Server
	ncAddr string

	ncMu  sync.Mutex // guards ncCli, which editConfig redials
	ncCli *netconf.Client

	mu      sync.Mutex
	nfPorts map[nffg.ID]map[string]int
}

// Config assembles the domain.
type Config struct {
	// ID names the domain (default "mininet").
	ID string
	// Substrate describes the emulated topology (BiS-BiS switches, SAPs).
	Substrate *nffg.NFFG
	// Engine is the shared dataplane engine (one per multi-domain demo).
	Engine *dataplane.Engine
	// Borders lists SAPs that are inter-domain stitch points (no host).
	Borders map[nffg.ID]bool
	// Virtualizer selects the exported view (default SingleBiSBiS).
	Virtualizer core.Virtualizer
}

// New builds and starts the domain: emulated network, OpenFlow controller
// plus per-switch agents, NETCONF server for NF lifecycle, and the local
// orchestrator gluing them together.
func New(cfg Config) (*Domain, error) {
	if cfg.ID == "" {
		cfg.ID = "mininet"
	}
	if cfg.Engine == nil {
		cfg.Engine = dataplane.NewEngine()
	}
	net, err := emunet.Build(cfg.Engine, cfg.Substrate, cfg.Borders)
	if err != nil {
		return nil, fmt.Errorf("mininet: build net: %w", err)
	}
	d := &Domain{net: net, nfPorts: map[nffg.ID]map[string]int{}}

	// OpenFlow: the dedicated ESCAPE entity is the controller; every
	// emulated switch runs an agent that dials it.
	d.ctrl = openflow.NewController()
	ofAddr, err := d.ctrl.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("mininet: controller: %w", err)
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
		if err := ag.Connect(ofAddr); err != nil {
			d.Close()
			return nil, fmt.Errorf("mininet: agent %s: %w", swID, err)
		}
		d.agents = append(d.agents, ag)
	}
	if err := d.ctrl.WaitForSwitches(len(d.agents), 5*time.Second); err != nil {
		d.Close()
		return nil, fmt.Errorf("mininet: handshake: %w", err)
	}

	// NETCONF: NF lifecycle endpoint of the domain.
	d.ncSrv = netconf.NewServer(&mnDatastore{net: net, substrate: cfg.Substrate})
	d.ncAddr, err = d.ncSrv.Listen("127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("mininet: netconf server: %w", err)
	}
	d.ncCli, err = netconf.Dial(d.ncAddr)
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("mininet: netconf client: %w", err)
	}

	lo, err := core.NewLocalOrchestrator(core.LocalConfig{
		ID:          cfg.ID,
		Substrate:   cfg.Substrate,
		Virtualizer: cfg.Virtualizer,
		Programmer:  core.ProgrammerFunc(d.commit),
	})
	if err != nil {
		d.Close()
		return nil, err
	}
	d.LocalOrchestrator = lo
	return d, nil
}

// Net exposes the emulated network (traffic injection in demos/tests).
func (d *Domain) Net() *emunet.Net { return d.net }

// Close tears down control sessions.
func (d *Domain) Close() {
	d.ncMu.Lock()
	if d.ncCli != nil {
		_ = d.ncCli.Close()
	}
	d.ncMu.Unlock()
	if d.ncSrv != nil {
		d.ncSrv.Close()
	}
	for _, ag := range d.agents {
		ag.Close()
	}
	if d.ctrl != nil {
		d.ctrl.Close()
	}
}

// ofOp pairs a flow-mod with the high-level rule it implements, so pipeline
// errors attribute back to NFFG flowrule IDs.
type ofOp struct {
	rule string
	fm   *openflow.FlowMod
}

// commit is the Programmer: deltas arrive from the local orchestrator and
// leave as one coalesced NETCONF edit-config plus pipelined OpenFlow
// flow-mods fanned out across datapaths in parallel — one barrier per
// (datapath, phase) instead of one round-trip per rule.
func (d *Domain) commit(ctx context.Context, delta *nffg.Delta, cfg *nffg.NFFG) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sb := d.Southbound()
	start := time.Now()
	defer func() { sb.ObserveDelta(time.Since(start)) }()

	// 1. Rule deletions (free match slots before rewrites), pipelined.
	dels := map[nffg.ID][]ofOp{}
	for _, infra := range sortedInfraKeys(delta.DelRules) {
		for _, f := range delta.DelRules[infra] {
			dels[infra] = append(dels[infra], ofOp{rule: f.ID, fm: &openflow.FlowMod{Cmd: openflow.FlowDelete, RuleID: f.ID}})
		}
	}
	if err := d.fanOut(ctx, dels); err != nil {
		return err
	}

	// 2+3. NF lifecycle: all teardowns and starts of the delta coalesce into
	// a single edit-config RPC; port allocations ride back in its reply.
	if len(delta.DelNFs) > 0 || len(delta.AddNFs) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		nd := nfDelta{}
		for _, id := range delta.DelNFs {
			nd.Stops = append(nd.Stops, string(id))
		}
		for _, nf := range delta.AddNFs {
			var portIDs []string
			for _, p := range nf.Ports {
				portIDs = append(portIDs, p.ID)
			}
			nd.Starts = append(nd.Starts, startNFReq{ID: string(nf.ID), Host: string(nf.Host), Type: nf.FunctionalType, Ports: portIDs})
		}
		body, err := netconf.MarshalXML(nd)
		if err != nil {
			return err
		}
		ncSpan, _ := obs.StartSpan(ctx, "netconf.rpc",
			"stops", fmt.Sprint(len(nd.Stops)), "starts", fmt.Sprint(len(nd.Starts)))
		data, err := d.editConfig(ctx, body)
		sb.AddNetconfRPCs(1)
		ncSpan.EndWith(err)
		if err != nil {
			return fmt.Errorf("mininet: nf delta: %w", err)
		}
		var allocs nfAllocations
		if len(delta.AddNFs) > 0 {
			if err := xml.Unmarshal(data, &allocs); err != nil {
				return fmt.Errorf("mininet: nf delta reply: %w", err)
			}
		}
		d.mu.Lock()
		for _, id := range delta.DelNFs {
			delete(d.nfPorts, id)
		}
		for _, a := range allocs.NFs {
			ports := map[string]int{}
			for _, p := range a.Ports {
				ports[p.ID] = p.SwitchPort
			}
			d.nfPorts[nffg.ID(a.ID)] = ports
		}
		d.mu.Unlock()
	}

	// 4. Rule installs: translate everything first (cheap, fail-fast), then
	// fan the flow-mods out across datapaths.
	adds := map[nffg.ID][]ofOp{}
	for _, infra := range sortedInfraKeys(delta.AddRules) {
		for _, f := range delta.AddRules[infra] {
			r, err := emunet.TranslateRule(f, d.lookupNFPorts)
			if err != nil {
				return fmt.Errorf("mininet: translate rule %s: %w", f.ID, err)
			}
			adds[infra] = append(adds[infra], ofOp{rule: f.ID, fm: &openflow.FlowMod{
				Cmd: openflow.FlowAdd, RuleID: r.ID, Priority: uint16(r.Priority),
				InPort: uint16(r.Match.InPort), Tag: r.Match.Tag, AnyTag: r.Match.AnyTag,
				MatchDst: string(r.Match.Dst),
				OutPort:  uint16(r.Action.OutPort), PushTag: r.Action.PushTag, PopTag: r.Action.PopTag,
			}})
		}
	}
	return d.fanOut(ctx, adds)
}

// fanOut streams each datapath's flow-mods through its own pipeline, all
// datapaths concurrently, one barrier per datapath on the happy path.
func (d *Domain) fanOut(ctx context.Context, ops map[nffg.ID][]ofOp) error {
	if len(ops) == 0 {
		return nil
	}
	sb := d.Southbound()
	var wg sync.WaitGroup
	errs := make([]error, 0, len(ops))
	var errMu sync.Mutex
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
				fail(fmt.Errorf("mininet: datapath %s: %w", infra, err))
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
					fail(fmt.Errorf("mininet: rule %s on %s: %w", op.rule, infra, err))
					return
				}
			}
			if err := p.Flush(sctx); err != nil {
				fail(fmt.Errorf("mininet: datapath %s: %w", infra, err))
			}
		}(infra, batch)
	}
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// editConfig sends one nf-delta as an edit-config RPC and returns the reply's
// data. An RPC that times out closes its session; the next editConfig finds
// it closed, with nothing sent on it, and sends on a new session to the
// in-process server instead, so one slow RPC does not disable the domain.
func (d *Domain) editConfig(ctx context.Context, body []byte) ([]byte, error) {
	d.ncMu.Lock()
	defer d.ncMu.Unlock()
	data, err := d.ncCli.EditConfigData(ctx, body)
	if !errors.Is(err, netconf.ErrClosed) {
		return data, err
	}
	cli, err := netconf.Dial(d.ncAddr)
	if err != nil {
		return nil, err
	}
	d.ncCli = cli
	return cli.EditConfigData(ctx, body)
}

func (d *Domain) lookupNFPorts(nf nffg.ID) (map[string]int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ports, ok := d.nfPorts[nf]
	if !ok {
		return nil, fmt.Errorf("mininet: NF %s has no recorded ports", nf)
	}
	return ports, nil
}

// Stats pulls flow statistics from a switch over the OpenFlow channel,
// honoring the caller's deadline/cancellation.
func (d *Domain) Stats(ctx context.Context, sw nffg.ID) (*openflow.StatsReply, error) {
	return d.ctrl.Stats(ctx, string(sw))
}

// --- NETCONF datastore (the domain-side agent) ------------------------------

type startNFReq struct {
	XMLName xml.Name `xml:"nf"`
	ID      string   `xml:"id"`
	Host    string   `xml:"host"`
	Type    string   `xml:"type"`
	Ports   []string `xml:"ports>port"`
}

type startNFReply struct {
	XMLName xml.Name      `xml:"allocation"`
	Ports   []portBinding `xml:"port"`
}

type portBinding struct {
	ID         string `xml:"id,attr"`
	SwitchPort int    `xml:"switch-port,attr"`
}

type stopNFReq struct {
	XMLName xml.Name `xml:"nf"`
	ID      string   `xml:"id"`
}

// nfDelta is the coalesced NF-lifecycle document a delta sends as one
// edit-config: every stop and start of the delta in a single RPC.
type nfDelta struct {
	XMLName xml.Name     `xml:"nf-delta"`
	Stops   []string     `xml:"stops>id"`
	Starts  []startNFReq `xml:"starts>nf"`
}

// nfAllocations is the edit-config reply body: per-started-NF port bindings.
type nfAllocations struct {
	XMLName xml.Name       `xml:"nf-allocations"`
	NFs     []nfAllocation `xml:"nf"`
}

type nfAllocation struct {
	ID    string        `xml:"id,attr"`
	Ports []portBinding `xml:"port"`
}

// mnDatastore exposes the domain's NF lifecycle over NETCONF.
type mnDatastore struct {
	net       *emunet.Net
	substrate *nffg.NFFG
}

// GetConfig returns the substrate in the virtualizer XML rendering.
func (ds *mnDatastore) GetConfig() ([]byte, error) {
	s, err := ds.substrate.XMLString()
	if err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// EditConfig applies a coalesced nf-delta document — every stop and start of
// one orchestration delta in a single RPC — and returns the port allocations
// of started NFs in the reply.
func (ds *mnDatastore) EditConfig(config []byte) ([]byte, error) {
	var nd nfDelta
	if err := xml.Unmarshal(config, &nd); err != nil {
		return nil, fmt.Errorf("mininet: edit-config expects an nf-delta document: %w", err)
	}
	for _, id := range nd.Stops {
		if err := ds.net.StopNF(nffg.ID(id)); err != nil {
			return nil, fmt.Errorf("mininet: stop %s: %w", id, err)
		}
	}
	allocs := nfAllocations{}
	for _, req := range nd.Starts {
		ports, err := ds.startNF(&req)
		if err != nil {
			return nil, fmt.Errorf("mininet: start %s: %w", req.ID, err)
		}
		a := nfAllocation{ID: req.ID}
		for id, sp := range ports {
			a.Ports = append(a.Ports, portBinding{ID: id, SwitchPort: sp})
		}
		allocs.NFs = append(allocs.NFs, a)
	}
	if len(allocs.NFs) == 0 {
		return nil, nil
	}
	return netconf.MarshalXML(allocs)
}

// startNF boots a Click NF on its host switch and returns port bindings.
func (ds *mnDatastore) startNF(req *startNFReq) (map[string]int, error) {
	config, err := click.ConfigFor(req.Type, req.ID)
	if err != nil {
		return nil, err
	}
	nf, err := click.NewNF(config)
	if err != nil {
		return nil, err
	}
	return ds.net.StartNF(nffg.ID(req.ID), nffg.ID(req.Host), req.Ports, nf)
}

// Call dispatches NF lifecycle actions (the single-NF path kept for external
// tooling; orchestration deltas use the coalesced edit-config instead).
func (ds *mnDatastore) Call(action string, body []byte) ([]byte, error) {
	switch action {
	case "start-nf":
		var req startNFReq
		if err := xml.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("mininet: start-nf body: %w", err)
		}
		ports, err := ds.startNF(&req)
		if err != nil {
			return nil, err
		}
		rep := startNFReply{}
		for id, sp := range ports {
			rep.Ports = append(rep.Ports, portBinding{ID: id, SwitchPort: sp})
		}
		return netconf.MarshalXML(rep)
	case "stop-nf":
		var req stopNFReq
		if err := xml.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("mininet: stop-nf body: %w", err)
		}
		return nil, ds.net.StopNF(nffg.ID(req.ID))
	default:
		return nil, fmt.Errorf("mininet: unknown action %q", action)
	}
}

func sortedInfraKeys(m map[nffg.ID][]*nffg.Flowrule) []nffg.ID {
	out := make([]nffg.ID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
