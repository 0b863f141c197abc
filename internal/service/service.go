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
	"log"
	"sort"
	"sync"
	"time"

	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// State is the lifecycle of a service request.
type State string

// Request states.
const (
	StateReceived State = "received"
	StateMapped   State = "mapped"
	StateDeployed State = "deployed"
	StateFailed   State = "failed"
	StateRemoved  State = "removed"
)

// Errors of the service layer.
var (
	ErrDuplicate = errors.New("service: duplicate request ID")
	ErrUnknown   = errors.New("service: unknown request")
	ErrInvalid   = errors.New("service: invalid service graph")
)

// Request tracks one submitted service.
type Request struct {
	ID    string
	Graph *nffg.NFFG
	State State
	// Tenant is the submitting party (from the submission context's
	// unify.RequestMeta; unify.DefaultTenant when absent). The service layer
	// records it for its own book and propagates it southbound on the deploy
	// context, so a downstream admission queue schedules the install under
	// the right tenant.
	Tenant string
	// Error holds the failure reason when State == StateFailed.
	Error string
	// Receipt is the deployment record from the layer below.
	Receipt *unify.Receipt
	// Submitted/Finished are wall-clock bounds of the deployment.
	Submitted time.Time
	Finished  time.Time
	// done is closed when the deployment reaches StateDeployed or
	// StateFailed (shared by value copies; see Wait).
	done chan struct{}
}

// OpStats counts the service layer's failure-path outcomes — the operations
// whose errors historically vanished into discarded returns (detached async
// deploys, migration rollbacks).
type OpStats struct {
	// AsyncDeployFailures counts SubmitAsync deployments that ended
	// StateFailed (the detached goroutine's error, also recorded on the
	// request itself).
	AsyncDeployFailures uint64 `json:"async_deploy_failures"`
	// MigrateRollbacks counts failed migrations that attempted to restore
	// the original placement.
	MigrateRollbacks uint64 `json:"migrate_rollbacks"`
	// RollbackFailures counts restores that themselves failed — the service
	// is gone and both errors were surfaced to the caller.
	RollbackFailures uint64 `json:"rollback_failures"`
}

// Orchestrator is the service orchestrator: it owns the user-facing request
// book and talks to one southbound Unify layer.
type Orchestrator struct {
	south  unify.Layer
	mapper *embed.Mapper

	mu       sync.Mutex
	requests map[string]*Request
	ops      OpStats
}

// NewOrchestrator builds a service layer on top of a Unify layer. mapper
// selects how requests are pre-mapped onto multi-node views (nil = default
// greedy mapper).
func NewOrchestrator(south unify.Layer, mapper *embed.Mapper) *Orchestrator {
	if mapper == nil {
		mapper = embed.NewDefault()
	}
	return &Orchestrator{south: south, mapper: mapper, requests: map[string]*Request{}}
}

// View exposes the southbound virtualization view (what the GUI shows).
func (o *Orchestrator) View(ctx context.Context) (*nffg.NFFG, error) { return o.south.View(ctx) }

// book registers a fresh request in the request book (duplicate IDs reject).
// The submission context's tenant identity is recorded on the request.
func (o *Orchestrator) book(ctx context.Context, g *nffg.NFFG) (*Request, error) {
	if g.ID == "" {
		return nil, fmt.Errorf("%w: request needs an ID", ErrInvalid)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.requests[g.ID]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, g.ID)
	}
	req := &Request{
		ID: g.ID, Graph: g.Copy(), State: StateReceived,
		Tenant:    unify.MetaFrom(ctx).Normalize().Tenant,
		Submitted: time.Now(), done: make(chan struct{}),
	}
	o.requests[g.ID] = req
	return req, nil
}

// deploy runs the validate→view→premap→install pipeline for a booked
// request, recording the terminal state and waking waiters.
func (o *Orchestrator) deploy(ctx context.Context, req *Request, g *nffg.NFFG) (*Request, error) {
	fail := func(err error) (*Request, error) {
		o.mu.Lock()
		req.State = StateFailed
		req.Error = err.Error()
		req.Finished = time.Now()
		close(req.done)
		o.mu.Unlock()
		return req, err
	}

	if err := validateServiceGraph(g); err != nil {
		return fail(err)
	}
	view, err := o.south.View(ctx)
	if err != nil {
		return fail(fmt.Errorf("service: fetching view: %w", err))
	}
	pinned, err := o.premap(view, g)
	if err != nil {
		return fail(err)
	}
	o.mu.Lock()
	req.State = StateMapped
	o.mu.Unlock()

	receipt, err := o.south.Install(ctx, pinned)
	if err != nil {
		return fail(err)
	}
	o.mu.Lock()
	req.State = StateDeployed
	req.Receipt = receipt
	req.Finished = time.Now()
	close(req.done)
	o.mu.Unlock()
	return req, nil
}

// Submit validates, maps and deploys a service graph. On success the request
// is StateDeployed; on failure it is recorded as StateFailed and the error
// returned.
func (o *Orchestrator) Submit(ctx context.Context, g *nffg.NFFG) (*Request, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req, err := o.book(ctx, g)
	if err != nil {
		return nil, err
	}
	return o.deploy(ctx, req, g)
}

// SubmitAsync books a service graph and deploys it in the background,
// returning the StateReceived snapshot immediately — the service-layer twin
// of the northbound async jobs API. The deployment runs detached from the
// caller's cancellation (submitting is the commitment); watch it with Wait or
// Get.
func (o *Orchestrator) SubmitAsync(ctx context.Context, g *nffg.NFFG) (*Request, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req, err := o.book(ctx, g)
	if err != nil {
		return nil, err
	}
	snapshot := *req
	// Deploy from the book's own copy of the graph: the caller keeps
	// ownership of g and may mutate it the moment we return. The detached
	// deployment's error lands on the request (Wait/Get see StateFailed) and
	// in OpStats — a terminal outcome nobody is awaiting must still count
	// somewhere visible.
	go func() {
		if _, err := o.deploy(context.WithoutCancel(ctx), req, req.Graph); err != nil {
			o.mu.Lock()
			o.ops.AsyncDeployFailures++
			o.mu.Unlock()
			log.Printf("service: async deploy %s: %v", req.ID, err)
		}
	}()
	return &snapshot, nil
}

// Wait blocks until the request reaches StateDeployed or StateFailed (or ctx
// is done) and returns its snapshot.
func (o *Orchestrator) Wait(ctx context.Context, id string) (*Request, error) {
	o.mu.Lock()
	req, ok := o.requests[id]
	o.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, id)
	}
	select {
	case <-req.done:
		return o.Get(id)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
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

// Migrate moves a deployed service's NFs to new placements (the paper's
// "migration between technologies": e.g. a Click-hosted firewall re-homed
// onto the Universal Node). pins maps NF IDs to new view-node hosts; NFs not
// listed keep their previous pin (if any). The operation is remove +
// redeploy; on redeploy failure the original request is restored best-effort.
func (o *Orchestrator) Migrate(ctx context.Context, id string, pins map[nffg.ID]nffg.ID) (*Request, error) {
	o.mu.Lock()
	req, ok := o.requests[id]
	if !ok {
		o.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknown, id)
	}
	if req.State != StateDeployed {
		o.mu.Unlock()
		return nil, fmt.Errorf("%w: service %s is %s, not deployed", ErrInvalid, id, req.State)
	}
	original := req.Graph.Copy()
	o.mu.Unlock()

	moved := original.Copy()
	for nf, host := range pins {
		n, ok := moved.NFs.Lookup(nf)
		if !ok {
			return nil, fmt.Errorf("%w: NF %s not in service %s", ErrInvalid, nf, id)
		}
		n.Host = host
	}
	if err := o.south.Remove(ctx, id); err != nil && !errors.Is(err, unify.ErrUnknownService) {
		return nil, err
	}
	o.mu.Lock()
	delete(o.requests, id)
	o.mu.Unlock()
	migrated, err := o.Submit(ctx, moved)
	if err != nil {
		// Roll back to the original placement.
		o.mu.Lock()
		delete(o.requests, id)
		o.ops.MigrateRollbacks++
		o.mu.Unlock()
		restored, rerr := o.Submit(context.WithoutCancel(ctx), original)
		if rerr == nil {
			return restored, fmt.Errorf("service: migration failed (%v); original restored", err)
		}
		// Both legs failed: the service is down. The restore error must ride
		// the chain (errors.Is/As see both), not vanish — a caller retrying
		// the migration needs to know the original is gone too.
		o.mu.Lock()
		o.ops.RollbackFailures++
		o.mu.Unlock()
		return nil, errors.Join(
			fmt.Errorf("service: migration failed: %w", err),
			fmt.Errorf("service: restoring original placement failed: %w", rerr),
		)
	}
	return migrated, nil
}

// Remove tears a deployed service down. A request whose deployment is still
// in flight (received/mapped — e.g. a SubmitAsync not yet terminal) cannot be
// removed: callers Wait for the terminal state first, otherwise the detached
// deploy would resurrect a service the caller was told is gone.
func (o *Orchestrator) Remove(ctx context.Context, id string) error {
	o.mu.Lock()
	req, ok := o.requests[id]
	if !ok {
		o.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknown, id)
	}
	state := req.State
	o.mu.Unlock()
	if state == StateReceived || state == StateMapped {
		return fmt.Errorf("%w: service %s is %s; deployment still in flight", unify.ErrBusy, id, state)
	}
	if state == StateDeployed {
		if err := o.south.Remove(ctx, id); err != nil && !errors.Is(err, unify.ErrUnknownService) {
			return err
		}
	}
	o.mu.Lock()
	req.State = StateRemoved
	o.mu.Unlock()
	return nil
}

// Get returns a request by ID.
func (o *Orchestrator) Get(id string) (*Request, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	req, ok := o.requests[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, id)
	}
	cp := *req
	return &cp, nil
}

// List returns all requests sorted by ID.
func (o *Orchestrator) List() []*Request {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Request, 0, len(o.requests))
	for _, r := range o.requests {
		cp := *r
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// OpStats returns the failure-path counters.
func (o *Orchestrator) OpStats() OpStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ops
}

// Stats summarizes the request book per state.
func (o *Orchestrator) Stats() map[State]int {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := map[State]int{}
	for _, r := range o.requests {
		out[r.State]++
	}
	return out
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
