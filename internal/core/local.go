package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/obs"
	"github.com/unify-repro/escape/internal/unify"
)

// Programmer is the technology-specific half of a leaf domain: it receives
// configuration deltas (NF lifecycle + flowrule changes) and realizes them on
// concrete infrastructure — OpenFlow flow-mods and NETCONF actions in the
// Mininet domain, REST calls in OpenStack, LSI/container operations on the
// Universal Node.
type Programmer interface {
	// Commit applies a delta. cfg is the complete desired state for
	// reference (e.g. to resolve ports). Commit must either fully apply the
	// delta or leave the infrastructure unchanged. ctx carries the caller's
	// deadline/cancellation; a Programmer observing ctx done should stop and
	// report ctx.Err() without applying the delta.
	Commit(ctx context.Context, delta *nffg.Delta, cfg *nffg.NFFG) error
}

// ProgrammerFunc adapts a function to the Programmer interface.
type ProgrammerFunc func(ctx context.Context, delta *nffg.Delta, cfg *nffg.NFFG) error

// Commit implements Programmer.
func (f ProgrammerFunc) Commit(ctx context.Context, delta *nffg.Delta, cfg *nffg.NFFG) error {
	return f(ctx, delta, cfg)
}

// LocalOrchestrator is the UNIFY-conform local orchestrator every
// infrastructure domain runs (the paper implements one per technology:
// Mininet's dedicated ESCAPE entity, the OpenStack local orchestrator, the UN
// local orchestrator). It owns the domain's internal substrate, embeds
// incoming requests onto it, and delegates device programming to a
// Programmer. It implements domain.Domain.
//
// Like the ResourceOrchestrator it uses the snapshot→map→commit pipeline: the
// configured substrate is an immutable value with a generation counter, the
// CPU-bound embedding runs against a snapshot outside the lock, and only the
// generation re-check plus device programming sit in the critical section (a
// domain's devices are programmed one delta at a time, since deltas are
// relative to the configured state).
type LocalOrchestrator struct {
	id     string
	virt   Virtualizer
	mapper *embed.Mapper
	prog   Programmer
	caps   []domain.Capability

	mu       sync.Mutex
	cfg      *nffg.NFFG // immutable sealed snapshot: internal topology + deployed state
	gen      uint64     // bumped on every committed substrate change
	services map[string]*embed.Mapping
	pending  map[string]bool // IDs reserved by in-flight installs

	// viewCache memoizes the exported virtualization per substrate
	// generation: on the steady state View is a pointer return of one sealed
	// graph shared by all readers (see readcache.go for the discipline).
	viewCache atomic.Pointer[loViewEntry]
	viewStats cacheCounters

	// watch broadcasts generation bumps to WaitVersion callers (version.go).
	watch changeNotifier

	// southbound accumulates the device-programming counters this domain's
	// Programmer records (see southbound.go).
	southbound SouthboundRecorder
}

// loViewEntry is one cached (generation, sealed view) pair.
type loViewEntry struct {
	gen  uint64
	view *nffg.NFFG
}

// LocalConfig assembles a LocalOrchestrator.
type LocalConfig struct {
	// ID names the domain.
	ID string
	// Substrate is the domain's internal resource topology (real switches,
	// compute nodes, SAPs including border SAPs).
	Substrate *nffg.NFFG
	// Virtualizer selects the exported view (default SingleBiSBiS named
	// "bisbis@<id>" — domains delegate internals, as in the paper).
	Virtualizer Virtualizer
	// Mapper selects the internal embedding algorithm (default greedy-bt).
	Mapper *embed.Mapper
	// Programmer realizes deltas on devices (default no-op).
	Programmer Programmer
	// Capabilities advertised northbound (default compute+forwarding).
	Capabilities []domain.Capability
}

// NewLocalOrchestrator builds the leaf layer.
func NewLocalOrchestrator(cfg LocalConfig) (*LocalOrchestrator, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("core: local orchestrator needs an ID")
	}
	if cfg.Substrate == nil {
		return nil, fmt.Errorf("core: local orchestrator %s needs a substrate", cfg.ID)
	}
	if err := cfg.Substrate.Validate(); err != nil {
		return nil, fmt.Errorf("core: substrate of %s: %w", cfg.ID, err)
	}
	if cfg.Virtualizer == nil {
		cfg.Virtualizer = SingleBiSBiS{NodeID: nffg.ID("bisbis@" + cfg.ID)}
	}
	if cfg.Mapper == nil {
		cfg.Mapper = embed.NewDefault()
	}
	if cfg.Programmer == nil {
		cfg.Programmer = ProgrammerFunc(func(context.Context, *nffg.Delta, *nffg.NFFG) error { return nil })
	}
	if cfg.Capabilities == nil {
		cfg.Capabilities = []domain.Capability{domain.CapCompute, domain.CapForwarding}
	}
	return &LocalOrchestrator{
		id:       cfg.ID,
		virt:     cfg.Virtualizer,
		mapper:   cfg.Mapper,
		prog:     cfg.Programmer,
		caps:     cfg.Capabilities,
		cfg:      cfg.Substrate.Copy().Seal(),
		services: map[string]*embed.Mapping{},
		pending:  map[string]bool{},
	}, nil
}

// ID implements unify.Layer.
func (lo *LocalOrchestrator) ID() string { return lo.id }

// Capabilities implements domain.Domain.
func (lo *LocalOrchestrator) Capabilities() []domain.Capability {
	return append([]domain.Capability(nil), lo.caps...)
}

// snapshot returns the current immutable (cfg, gen) pair.
func (lo *LocalOrchestrator) snapshot() (*nffg.NFFG, uint64) {
	lo.mu.Lock()
	defer lo.mu.Unlock()
	return lo.cfg, lo.gen
}

// View implements unify.Layer: the domain's exported virtualization, derived
// from an immutable snapshot without holding the lock. The output is memoized
// per substrate generation — between commits repeated views share one sealed
// graph (readers Copy() before mutating, per the unify.Layer contract).
func (lo *LocalOrchestrator) View(ctx context.Context) (*nffg.NFFG, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snap, gen := lo.snapshot()
	if e := lo.viewCache.Load(); e != nil && e.gen == gen {
		lo.viewStats.hits.Add(1)
		return e.view, nil
	}
	lo.viewStats.misses.Add(1)
	v, err := lo.virt.View(snap)
	if err != nil {
		return nil, err
	}
	v.Seal()
	if old := lo.viewCache.Load(); old != nil {
		lo.viewStats.invalidations.Add(1)
	}
	lo.viewCache.Store(&loViewEntry{gen: gen, view: v})
	return v, nil
}

// ViewCacheStats returns the view memoization counters.
func (lo *LocalOrchestrator) ViewCacheStats() CacheStats { return lo.viewStats.snapshot() }

// Southbound returns the recorder the domain's Programmer records
// device-programming counters into.
func (lo *LocalOrchestrator) Southbound() *SouthboundRecorder { return &lo.southbound }

// SouthboundStats implements SouthboundStatsProvider.
func (lo *LocalOrchestrator) SouthboundStats() SouthboundStats { return lo.southbound.Snapshot() }

// Internal returns a copy of the internal configured substrate (inspection
// and tests).
func (lo *LocalOrchestrator) Internal() *nffg.NFFG {
	snap, _ := lo.snapshot()
	return snap.Copy()
}

// plan embeds a request against an immutable substrate snapshot and derives
// the new configuration plus the device delta. No locks held.
func (lo *LocalOrchestrator) plan(snap *nffg.NFFG, req *nffg.NFFG) (*embed.Mapping, *nffg.NFFG, *nffg.Delta, error) {
	work := req.Copy()
	scope := map[nffg.ID][]nffg.ID{}
	for _, id := range work.NFIDs() {
		nf := work.NFs.Get(id)
		if nf.Host == "" {
			continue
		}
		if _, direct := snap.Infras.Lookup(nf.Host); direct {
			continue
		}
		expanded := lo.virt.Scope(snap, nf.Host)
		if len(expanded) == 0 {
			return nil, nil, nil, fmt.Errorf("%w: NF %s pinned to unknown view node %s", unify.ErrRejected, id, nf.Host)
		}
		if len(expanded) == 1 {
			nf.Host = expanded[0]
		} else {
			nf.Host = ""
			scope[id] = expanded
		}
	}
	mapping, err := lo.mapper.MapScoped(snap, work, scope)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", unify.ErrRejected, err)
	}
	newCfg, err := embed.Apply(snap, mapping)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", unify.ErrRejected, err)
	}
	delta, err := nffg.Diff(snap, newCfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core %s: diff: %w", lo.id, err)
	}
	return mapping, newCfg, delta, nil
}

// Install implements unify.Layer: embed the request on a substrate snapshot
// (outside the lock), then commit — re-validating the generation, programming
// the devices, and recording the service in one critical section. Losing the
// commit race re-plans on a fresh snapshot, bounded by MaxMapAttempts.
func (lo *LocalOrchestrator) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if req.ID == "" {
		return nil, fmt.Errorf("%w: request needs an ID", unify.ErrRejected)
	}
	if err := req.CheckQuantities(); err != nil {
		return nil, fmt.Errorf("%w: %v", unify.ErrRejected, err)
	}
	lo.mu.Lock()
	if lo.services[req.ID] != nil || lo.pending[req.ID] {
		lo.mu.Unlock()
		return nil, fmt.Errorf("%w: service %s already installed", unify.ErrRejected, req.ID)
	}
	lo.pending[req.ID] = true
	lo.mu.Unlock()
	release := func() {
		lo.mu.Lock()
		delete(lo.pending, req.ID)
		lo.mu.Unlock()
	}

	var lastErr error
	for attempt := 0; attempt < MaxMapAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			release()
			return nil, err
		}
		snap, snapGen := lo.snapshot()
		mapping, newCfg, delta, err := lo.plan(snap, req)
		if err != nil {
			if _, gen := lo.snapshot(); gen != snapGen {
				lastErr = err
				continue // stale failure: the substrate moved, re-plan
			}
			release()
			return nil, err
		}
		lo.mu.Lock()
		if lo.gen != snapGen {
			lo.mu.Unlock()
			lastErr = fmt.Errorf("%w: substrate generation advanced during mapping", unify.ErrBusy)
			continue // lost the commit race, re-plan on the fresh snapshot
		}
		// The programming span scopes the device-side work; the adapter's
		// per-datapath flush spans nest under it via pctx.
		progSpan, pctx := obs.StartSpan(ctx, "local.program", "domain", lo.id)
		if err := lo.prog.Commit(pctx, delta, newCfg); err != nil {
			progSpan.EndWith(err)
			delete(lo.pending, req.ID)
			lo.mu.Unlock()
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// Keep the context error identity: the caller canceled, the
				// request was not rejected on its merits.
				return nil, fmt.Errorf("core %s: programming canceled: %w", lo.id, err)
			}
			return nil, fmt.Errorf("%w: programming failed: %v", unify.ErrRejected, err)
		}
		progSpan.End()
		lo.cfg = newCfg.Seal()
		lo.gen++
		lo.services[req.ID] = mapping
		delete(lo.pending, req.ID)
		lo.mu.Unlock()
		lo.watch.wake()

		return mappingReceipt(req.ID, mapping), nil
	}
	release()
	return nil, fmt.Errorf("%w: gave up after %d mapping attempts (last: %v)", unify.ErrBusy, MaxMapAttempts, lastErr)
}

// Remove implements unify.Layer.
func (lo *LocalOrchestrator) Remove(ctx context.Context, serviceID string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	lo.mu.Lock()
	defer lo.mu.Unlock()
	mapping, ok := lo.services[serviceID]
	if !ok {
		return fmt.Errorf("%w: %s", unify.ErrUnknownService, serviceID)
	}
	newCfg := lo.cfg.Fork()
	if err := embed.Release(newCfg, mapping); err != nil {
		return err
	}
	delta, err := nffg.Diff(lo.cfg, newCfg)
	if err != nil {
		return err
	}
	if err := lo.prog.Commit(ctx, delta, newCfg); err != nil {
		return fmt.Errorf("core %s: programming teardown: %w", lo.id, err)
	}
	lo.cfg = newCfg.Seal()
	lo.gen++
	lo.watch.wake()
	delete(lo.services, serviceID)
	return nil
}

// Services implements unify.Layer.
func (lo *LocalOrchestrator) Services() []string {
	lo.mu.Lock()
	defer lo.mu.Unlock()
	out := make([]string, 0, len(lo.services))
	for id := range lo.services {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
