// Package mininet implements the paper's Mininet-based infrastructure
// domain: an emulated SDN network whose NFs run as isolated Click processes,
// "orchestrated by a dedicated ESCAPEv2 entity via NETCONF and OpenFlow
// control channels". Both control channels are real protocol sessions over
// loopback TCP — a delta's NF lifecycle travels as one NETCONF edit-config,
// its flowrules as OpenFlow flow-mods (see ofnet) — so swapping in external
// infrastructure means re-pointing two addresses.
package mininet

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/dataplane"
	"github.com/unify-repro/escape/internal/domain/emunet"
	"github.com/unify-repro/escape/internal/domain/mininet/click"
	"github.com/unify-repro/escape/internal/domain/ofnet"
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
	fabric *ofnet.Fabric
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
	if d.fabric, err = ofnet.New("mininet", net, cfg.Substrate); err != nil {
		return nil, err
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
	d.fabric.Close()
}

// commit is the Programmer: deltas arrive from the local orchestrator and
// leave as one coalesced NETCONF edit-config between two OpenFlow phases —
// rule deletions before it (freeing match slots before rewrites), rule
// installs after it, translated with the NF ports its reply allocated.
func (d *Domain) commit(ctx context.Context, delta *nffg.Delta, _ *nffg.NFFG) error {
	sb := d.Southbound()
	if err := d.fabric.Program(ctx, sb, delta.DelRules, nil, nil); err != nil {
		return err
	}

	// NF lifecycle: all teardowns and starts of the delta coalesce into
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
			"stops", strconv.Itoa(len(nd.Stops)), "starts", strconv.Itoa(len(nd.Starts)))
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

	return d.fabric.Program(ctx, sb, nil, delta.AddRules, d.lookupNFPorts)
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
	return d.fabric.Stats(ctx, sw)
}

// --- NETCONF datastore (the domain-side agent) ------------------------------

type startNFReq struct {
	XMLName xml.Name `xml:"nf"`
	ID      string   `xml:"id"`
	Host    string   `xml:"host"`
	Type    string   `xml:"type"`
	Ports   []string `xml:"ports>port"`
}

type portBinding struct {
	ID         string `xml:"id,attr"`
	SwitchPort int    `xml:"switch-port,attr"`
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
// of started NFs in the reply. Stopping an NF that does not run succeeds: an
// undo stops what a failed delta may not have started.
func (ds *mnDatastore) EditConfig(config []byte) ([]byte, error) {
	var nd nfDelta
	if err := xml.Unmarshal(config, &nd); err != nil {
		return nil, fmt.Errorf("mininet: edit-config expects an nf-delta document: %w", err)
	}
	for _, id := range nd.Stops {
		if err := ds.net.StopNF(nffg.ID(id)); err != nil && !errors.Is(err, emunet.ErrUnknownNF) {
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

// Call answers every action with an error: NF lifecycle travels as one
// nf-delta edit-config per delta, never as a NETCONF action.
func (ds *mnDatastore) Call(action string, _ []byte) ([]byte, error) {
	return nil, fmt.Errorf("mininet: unknown action %q", action)
}
