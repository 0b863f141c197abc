package escape

import (
	"context"
	"fmt"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/dataplane"
	"github.com/unify-repro/escape/internal/decomp"
	"github.com/unify-repro/escape/internal/domain/emunet"
	"github.com/unify-repro/escape/internal/domain/mininet"
	"github.com/unify-repro/escape/internal/domain/openstack"
	"github.com/unify-repro/escape/internal/domain/sdnctl"
	"github.com/unify-repro/escape/internal/domain/un"
	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/monitor"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/service"
)

// Fig1System is the paper's Figure 1 brought up in one process: the joint
// SFC control plane on top of four technology domains —
//
//	sap1 — [Mininet+Click] — [legacy SDN (POX)] — [OpenStack+ODL] — [UN] — sap2
//
// stitched at border SAPs, with a multi-domain resource orchestrator (MdO)
// over the domains' exported views and a service layer on top. All domains
// forward packets through one shared deterministic dataplane engine, so an
// end-to-end chain demonstrably steers real (simulated) traffic across every
// technology.
type Fig1System struct {
	Engine *dataplane.Engine

	Mininet   *mininet.Domain
	SDN       *sdnctl.Domain
	OpenStack *openstack.Domain
	UN        *un.Domain

	// MdO is the multi-domain resource orchestrator (Fig. 1's upper right).
	MdO *core.ResourceOrchestrator
	// Service is the service layer with its service orchestrator (upper left).
	Service *service.Orchestrator
}

// Fig1Options tunes the demo system.
type Fig1Options struct {
	// SwitchesPerNetDomain sizes the Mininet and SDN domains (default 2).
	SwitchesPerNetDomain int
	// AcceleratedUN enables the DPDK-style fast path (default true).
	AcceleratedUN bool
	// MdOVirtualizer is the MdO's northbound view policy (default
	// SingleBiSBiS — full delegation to the MdO, the demo configuration).
	MdOVirtualizer Virtualizer
	// DecompRules, when set, enables NF decomposition in the MdO's mapper.
	DecompRules *decomp.Rules
}

// NewFig1System builds and starts the whole demo stack.
func NewFig1System(opts Fig1Options) (*Fig1System, error) {
	if opts.SwitchesPerNetDomain <= 0 {
		opts.SwitchesPerNetDomain = 2
	}
	if opts.MdOVirtualizer == nil {
		opts.MdOVirtualizer = core.SingleBiSBiS{NodeID: "bisbis@mdo"}
	}
	eng := dataplane.NewEngine()
	sys := &Fig1System{Engine: eng}

	// --- Mininet domain: sap1 + border b-mn-sdn --------------------------
	mnSub, err := lineSubstrate("mn", "mininet", opts.SwitchesPerNetDomain,
		"sap1", "b-mn-sdn", []string{"firewall", "dpi", "nat", "monitor"},
		Resources{CPU: 8, Mem: 8192, Storage: 64})
	if err != nil {
		return nil, err
	}
	sys.Mininet, err = mininet.New(mininet.Config{
		ID: "mininet", Substrate: mnSub, Engine: eng,
		Borders: map[ID]bool{"b-mn-sdn": true},
	})
	if err != nil {
		return nil, fmt.Errorf("fig1: mininet: %w", err)
	}

	// --- Legacy SDN domain: transit between b-mn-sdn and b-sdn-os --------
	sdnSub, err := transitSubstrate("sdn", opts.SwitchesPerNetDomain, "b-mn-sdn", "b-sdn-os")
	if err != nil {
		return nil, err
	}
	sys.SDN, err = sdnctl.New(sdnctl.Config{
		ID: "sdn", Substrate: sdnSub, Engine: eng,
		Borders: map[ID]bool{"b-mn-sdn": true, "b-sdn-os": true},
	})
	if err != nil {
		return nil, fmt.Errorf("fig1: sdn: %w", err)
	}

	// --- OpenStack domain: compute between b-sdn-os and b-os-un ----------
	osSub := NewBuilder("os-sub").
		BiSBiS("os-compute1", "openstack", 4, Resources{CPU: 32, Mem: 65536, Storage: 1024},
			"firewall", "dpi", "nat", "cache", "compress", "encrypt", "lb").
		SAP("b-sdn-os").SAP("b-os-un").
		Link("b1", "b-sdn-os", "1", "os-compute1", "1", 1000, 0.5).
		Link("b2", "os-compute1", "2", "b-os-un", "1", 1000, 0.5).
		MustBuild()
	sys.OpenStack, err = openstack.New(openstack.Config{
		ID: "openstack", Substrate: osSub, Engine: eng,
		Borders: map[ID]bool{"b-sdn-os": true, "b-os-un": true},
	})
	if err != nil {
		return nil, fmt.Errorf("fig1: openstack: %w", err)
	}

	// --- Universal Node: between b-os-un and sap2 ------------------------
	unSub := NewBuilder("un-sub").
		BiSBiS("un-lsi0", "un", 4, Resources{CPU: 16, Mem: 16384, Storage: 256},
			"firewall", "dpi", "nat", "compress", "encrypt", "cache", "monitor", "lb").
		SAP("b-os-un").SAP("sap2").
		Link("b", "b-os-un", "1", "un-lsi0", "1", 10000, 0.05).
		Link("u", "un-lsi0", "2", "sap2", "1", 10000, 0.05).
		MustBuild()
	sys.UN, err = un.New(un.Config{
		ID: "un", Substrate: unSub, Engine: eng,
		Borders: map[ID]bool{"b-os-un": true}, Accelerated: opts.AcceleratedUN,
	})
	if err != nil {
		return nil, fmt.Errorf("fig1: un: %w", err)
	}

	// --- Physical inter-domain wires (what the border SAPs stand for) ----
	if err := emunet.Patch(sys.Mininet.Net(), "b-mn-sdn", sys.SDN.Net(), "b-mn-sdn", 1000, 1); err != nil {
		return nil, fmt.Errorf("fig1: patch mn-sdn: %w", err)
	}
	if err := emunet.Patch(sys.SDN.Net(), "b-sdn-os", sys.OpenStack.Cloud().Net(), "b-sdn-os", 1000, 1); err != nil {
		return nil, fmt.Errorf("fig1: patch sdn-os: %w", err)
	}
	if err := emunet.Patch(sys.OpenStack.Cloud().Net(), "b-os-un", sys.UN.Net(), "b-os-un", 1000, 0.5); err != nil {
		return nil, fmt.Errorf("fig1: patch os-un: %w", err)
	}

	// --- Control plane: MdO over the four domains, service layer on top --
	var mdoMapper *embed.Mapper
	if opts.DecompRules != nil {
		mdoMapper = embed.New(embed.Options{MaxBacktrack: 128, Decomp: opts.DecompRules})
	}
	sys.MdO = core.NewResourceOrchestrator(core.Config{ID: "mdo", Virtualizer: opts.MdOVirtualizer, Mapper: mdoMapper})
	if err := sys.MdO.Attach(context.Background(), sys.Mininet); err != nil {
		return nil, err
	}
	if err := sys.MdO.Attach(context.Background(), sys.SDN); err != nil {
		return nil, err
	}
	if err := sys.MdO.Attach(context.Background(), sys.OpenStack); err != nil {
		return nil, err
	}
	if err := sys.MdO.Attach(context.Background(), sys.UN); err != nil {
		return nil, err
	}
	sys.Service = service.NewOrchestrator(sys.MdO, nil)
	return sys, nil
}

// Close shuts down all control-plane sessions.
func (s *Fig1System) Close() {
	if s.Mininet != nil {
		s.Mininet.Close()
	}
	if s.SDN != nil {
		s.SDN.Close()
	}
	if s.OpenStack != nil {
		s.OpenStack.Close()
	}
}

// Snapshot aggregates operational counters from all four domains.
func (s *Fig1System) Snapshot() *monitor.Snapshot {
	return monitor.CollectAll(
		monitor.NetSource{Domain: "mininet", Net: s.Mininet.Net()},
		monitor.NetSource{Domain: "sdn", Net: s.SDN.Net()},
		monitor.NetSource{Domain: "openstack", Net: s.OpenStack.Cloud().Net()},
		monitor.NetSource{Domain: "un", Net: s.UN.Net()},
	)
}

// SAP1 returns the traffic host of the Mininet-side user SAP.
func (s *Fig1System) SAP1() (*dataplane.SAPHost, error) { return s.Mininet.Net().SAP("sap1") }

// SAP2 returns the traffic host of the UN-side user SAP.
func (s *Fig1System) SAP2() (*dataplane.SAPHost, error) { return s.UN.Net().SAP("sap2") }

// DemoChain returns the canonical demo request: sap1 -> firewall -> dpi ->
// compress -> sap2 with a bandwidth demand per hop, exercising three
// execution environments (Click process, VM, container).
func (s *Fig1System) DemoChain(id string, bw float64) (*NFFG, error) {
	fw := ID(id + "-fw")
	dpi := ID(id + "-dpi")
	comp := ID(id + "-comp")
	g, err := NewBuilder(id).
		SAP("sap1").SAP("sap2").
		NF(fw, "firewall", 2, Resources{CPU: 2, Mem: 1024, Storage: 2}).
		NF(dpi, "dpi", 2, Resources{CPU: 4, Mem: 4096, Storage: 8}).
		NF(comp, "compress", 2, Resources{CPU: 2, Mem: 2048, Storage: 4}).
		Chain(id, bw, 0, "sap1", fw, dpi, comp, "sap2").
		Build()
	if err != nil {
		return nil, err
	}
	// Steer each NF into its intended execution environment, as the demo
	// narrative does: Click in Mininet, VM in OpenStack, container on UN.
	g.NFs.Get(fw).Host = "bisbis@mininet"
	g.NFs.Get(dpi).Host = "bisbis@openstack"
	g.NFs.Get(comp).Host = "bisbis@un"
	return g, nil
}

// lineSubstrate builds "sapLeft - s1 - s2 - ... - sn - sapRight" with compute
// switches.
func lineSubstrate(prefix, domain string, n int, left, right ID, supported []string, cap Resources) (*nffg.NFFG, error) {
	b := NewBuilder(prefix + "-sub")
	var nodes []ID
	for i := 1; i <= n; i++ {
		id := ID(fmt.Sprintf("%s-s%d", prefix, i))
		b.BiSBiS(id, domain, 4, cap, supported...)
		nodes = append(nodes, id)
	}
	b.SAP(left).SAP(right)
	b.Link(prefix+"-l0", left, "1", nodes[0], "1", 1000, 0.5)
	for i := 0; i < n-1; i++ {
		b.Link(fmt.Sprintf("%s-l%d", prefix, i+1), nodes[i], "2", nodes[i+1], "1", 1000, 0.5)
	}
	b.Link(fmt.Sprintf("%s-l%d", prefix, n), nodes[n-1], "2", right, "1", 1000, 0.5)
	return b.Build()
}

// transitSubstrate builds a forwarding-only line between two border SAPs.
func transitSubstrate(prefix string, n int, left, right ID) (*nffg.NFFG, error) {
	b := NewBuilder(prefix + "-sub")
	var nodes []ID
	for i := 1; i <= n; i++ {
		id := ID(fmt.Sprintf("%s-s%d", prefix, i))
		b.Switch(id, prefix, 4)
		nodes = append(nodes, id)
	}
	b.SAP(left).SAP(right)
	b.Link(prefix+"-l0", left, "1", nodes[0], "1", 1000, 0.5)
	for i := 0; i < n-1; i++ {
		b.Link(fmt.Sprintf("%s-l%d", prefix, i+1), nodes[i], "2", nodes[i+1], "1", 1000, 0.5)
	}
	b.Link(fmt.Sprintf("%s-l%d", prefix, n), nodes[n-1], "2", right, "1", 1000, 0.5)
	return b.Build()
}
