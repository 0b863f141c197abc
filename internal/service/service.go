// Package service implements the paper's service layer: where users define
// service requests (service graphs with bandwidth/delay constraints between
// arbitrary elements) and a service orchestrator maps them onto the
// virtualization view exposed by the layer below.
//
// When that view is a single BiS-BiS node the orchestration task is trivial
// and all resource management is delegated downward — exactly the
// delegation-vs-control dial the paper demonstrates.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// Errors of the service layer.
var (
	ErrDuplicate = errors.New("service: duplicate request ID")
	ErrUnknown   = errors.New("service: unknown request")
	ErrInvalid   = errors.New("service: invalid service graph")
)

// Orchestrator is the service orchestrator: it maps service graphs onto the
// view of one southbound Unify layer and keeps a book of the services it has
// in flight or deployed, nothing else.
type Orchestrator struct {
	south  unify.Layer
	mapper *embed.Mapper

	mu sync.Mutex
	// services maps each booked ID to its graph as submitted (Migrate
	// re-pins it), or to nil while a Submit, Remove or Migrate of it runs.
	// A failed Submit and a finished Remove delete the entry.
	services map[string]*nffg.NFFG
}

// NewOrchestrator builds a service layer on top of a Unify layer. mapper
// selects how requests are pre-mapped onto multi-node views (nil = default
// greedy mapper).
func NewOrchestrator(south unify.Layer, mapper *embed.Mapper) *Orchestrator {
	if mapper == nil {
		mapper = embed.NewDefault()
	}
	return &Orchestrator{south: south, mapper: mapper, services: map[string]*nffg.NFFG{}}
}

// View exposes the southbound virtualization view (what the GUI shows).
func (o *Orchestrator) View(ctx context.Context) (*nffg.NFFG, error) { return o.south.View(ctx) }

// Submit books g's ID, then validates, maps and deploys g. It returns the
// lower layer's receipt; a failed Submit leaves the ID unbooked. The tenant in
// ctx's unify.RequestMeta travels southbound with the install.
func (o *Orchestrator) Submit(ctx context.Context, g *nffg.NFFG) (*unify.Receipt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if g.ID == "" {
		return nil, fmt.Errorf("%w: request needs an ID", ErrInvalid)
	}
	o.mu.Lock()
	if _, dup := o.services[g.ID]; dup {
		o.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, g.ID)
	}
	o.services[g.ID] = nil
	o.mu.Unlock()

	receipt, err := o.deploy(ctx, g)
	if err != nil {
		o.settle(g.ID, nil)
		return nil, err
	}
	o.settle(g.ID, g.Copy())
	return receipt, nil
}

// Remove tears a deployed service down and forgets it. A service with an
// operation in flight cannot be removed (unify.ErrBusy): the operation would
// resurrect a service the caller was told is gone.
func (o *Orchestrator) Remove(ctx context.Context, id string) error {
	g, err := o.claim(id)
	if err != nil {
		return err
	}
	if err := o.south.Remove(ctx, id); err != nil && !errors.Is(err, unify.ErrUnknownService) {
		o.settle(id, g)
		return err
	}
	o.settle(id, nil)
	return nil
}

// Migrate moves a deployed service's NFs to new placements (the paper's
// "migration between technologies": e.g. a Click-hosted firewall re-homed
// onto the Universal Node). pins maps NF IDs to new view-node hosts; NFs not
// listed keep their previous pin (if any). The operation is remove +
// redeploy; on redeploy failure the original graph is deployed again, and
// Migrate returns its receipt together with the migration's error.
func (o *Orchestrator) Migrate(ctx context.Context, id string, pins map[nffg.ID]nffg.ID) (*unify.Receipt, error) {
	original, err := o.claim(id)
	if err != nil {
		return nil, err
	}
	moved := original.Copy()
	for nf, host := range pins {
		n, ok := moved.NFs.Lookup(nf)
		if !ok {
			o.settle(id, original)
			return nil, fmt.Errorf("%w: NF %s not in service %s", ErrInvalid, nf, id)
		}
		n.Host = host
	}
	if err := o.south.Remove(ctx, id); err != nil && !errors.Is(err, unify.ErrUnknownService) {
		o.settle(id, original)
		return nil, err
	}
	receipt, err := o.deploy(ctx, moved)
	if err == nil {
		o.settle(id, moved)
		return receipt, nil
	}
	restored, rerr := o.deploy(context.WithoutCancel(ctx), original)
	if rerr == nil {
		o.settle(id, original)
		return restored, fmt.Errorf("service: migration failed (%v); original restored", err)
	}
	// Both legs failed: the service is down. The restore error must ride
	// the chain (errors.Is/As see both), not vanish — a caller retrying
	// the migration needs to know the original is gone too.
	o.settle(id, nil)
	return nil, errors.Join(
		fmt.Errorf("service: migration failed: %w", err),
		fmt.Errorf("service: restoring original placement failed: %w", rerr),
	)
}

// claim marks a deployed service as having an operation in flight and
// returns its graph.
func (o *Orchestrator) claim(id string) (*nffg.NFFG, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	g, ok := o.services[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, id)
	}
	if g == nil {
		return nil, fmt.Errorf("%w: service %s has an operation in flight", unify.ErrBusy, id)
	}
	o.services[id] = nil
	return g, nil
}

// settle ends the operation in flight on id: the service stays deployed as
// g, or leaves the book when g is nil.
func (o *Orchestrator) settle(id string, g *nffg.NFFG) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if g == nil {
		delete(o.services, id)
		return
	}
	o.services[id] = g
}

// deploy runs the validate→view→premap→install pipeline.
func (o *Orchestrator) deploy(ctx context.Context, g *nffg.NFFG) (*unify.Receipt, error) {
	if err := validateServiceGraph(g); err != nil {
		return nil, err
	}
	view, err := o.south.View(ctx)
	if err != nil {
		return nil, fmt.Errorf("service: fetching view: %w", err)
	}
	pinned, err := o.premap(view, g)
	if err != nil {
		return nil, err
	}
	// Sealed: the layer below plans on the graph without copying it.
	return o.south.Install(ctx, pinned.Seal())
}

// premap decides NF pins against the view. Single-node views delegate
// everything; multi-node views run the embedding locally and pin NFs to the
// chosen view nodes (the service orchestrator's "mapping the service request
// to the virtualizer").
func (o *Orchestrator) premap(view, g *nffg.NFFG) (*nffg.NFFG, error) {
	out := g.Copy()
	// SAPs referenced by the service graph must exist in the view.
	for _, id := range g.SAPIDs() {
		if _, ok := view.SAPs.Lookup(id); !ok {
			return nil, fmt.Errorf("%w: SAP %s not present in the view", ErrInvalid, id)
		}
	}
	if view.Infras.Len() == 1 {
		var node nffg.ID
		for id := range view.Infras.All() {
			node = id
		}
		for _, id := range out.NFIDs() {
			if nf := out.NFs.Get(id); nf.Host == "" {
				nf.Host = node
			}
		}
		return out, nil
	}
	mp, err := o.mapper.Map(view, out)
	if err != nil {
		return nil, fmt.Errorf("service: pre-mapping on view: %w", err)
	}
	// Decomposition during pre-mapping is the lower layer's business; we map
	// the original graph only for placement hints, so only pin NFs that
	// exist in the original request.
	for nf, host := range mp.NFHost {
		if n, ok := out.NFs.Lookup(nf); ok {
			n.Host = host
		}
	}
	return out, nil
}

// validateServiceGraph checks that a request is a pure service graph: NFs +
// SAPs + hops + requirements, no infrastructure.
func validateServiceGraph(g *nffg.NFFG) error {
	if g.Infras.Len() != 0 {
		return fmt.Errorf("%w: service graphs must not contain infrastructure nodes", ErrInvalid)
	}
	if g.NumHops() == 0 {
		return fmt.Errorf("%w: service graph has no hops", ErrInvalid)
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	// Every NF must be reachable by some hop (no orphans).
	touched := map[nffg.ID]bool{}
	for h := range g.Hops() {
		touched[h.SrcNode] = true
		touched[h.DstNode] = true
	}
	for _, id := range g.NFIDs() {
		if !touched[id] {
			return fmt.Errorf("%w: NF %s is not part of any chain", ErrInvalid, id)
		}
	}
	return nil
}
