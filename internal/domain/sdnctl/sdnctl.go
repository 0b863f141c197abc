// Package sdnctl implements the paper's legacy OpenFlow network domain:
// "the control of legacy OpenFlow networks is realized by a POX controller
// and a corresponding adapter module". The domain is forwarding-only — it
// cannot host NFs, it can only steer traffic between its SAPs — which is
// exactly what makes it a useful transit segment in multi-domain chains.
package sdnctl

import (
	"context"
	"fmt"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/dataplane"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/domain/emunet"
	"github.com/unify-repro/escape/internal/domain/ofnet"
	"github.com/unify-repro/escape/internal/nffg"
)

// Domain is the legacy SDN domain: POX-like controller + adapter.
type Domain struct {
	*core.LocalOrchestrator
	net    *emunet.Net
	fabric *ofnet.Fabric
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
	d := &Domain{net: net}
	if d.fabric, err = ofnet.New("sdnctl", net, cfg.Substrate); err != nil {
		return nil, err
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
func (d *Domain) Close() { d.fabric.Close() }

// commit programs flowrules through the POX-like controller (see
// ofnet.Fabric.Program). NF operations are rejected: this domain has no
// compute.
func (d *Domain) commit(ctx context.Context, delta *nffg.Delta, _ *nffg.NFFG) error {
	if len(delta.AddNFs) > 0 || len(delta.DelNFs) > 0 {
		return fmt.Errorf("sdnctl: domain cannot host NFs")
	}
	return d.fabric.Program(ctx, d.Southbound(), delta.DelRules, delta.AddRules, func(nf nffg.ID) (map[string]int, error) {
		return nil, fmt.Errorf("rule references NF %s in forwarding-only domain", nf)
	})
}
