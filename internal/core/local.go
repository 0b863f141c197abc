package core

import (
	"context"
	"fmt"
	"time"

	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// Programmer is the technology-specific half of a leaf domain: it receives
// configuration deltas (NF lifecycle + flowrule changes) and realizes them on
// concrete infrastructure — OpenFlow flow-mods and a NETCONF edit-config in
// the Mininet domain, REST calls in OpenStack, LSI/container operations on
// the Universal Node.
type Programmer interface {
	// Commit applies a delta. cfg is the complete desired state for
	// reference (e.g. to resolve ports). A failed Commit may leave part of
	// its additions applied; the leaf takes them back with a removal delta,
	// so deletions tolerate absence: deleting an NF or a rule the devices do
	// not hold succeeds. ctx carries the caller's deadline/cancellation; a
	// Programmer observing ctx done should stop and report ctx.Err().
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
// local orchestrator). It implements domain.Domain.
//
// A leaf is a ResourceOrchestrator whose one DoV shard is terminal: the
// shard's graph is the domain's internal substrate, and a commit to it is
// delivered by programming the devices (Programmer.Commit of the shard's
// delta, under the shard lock) where an orchestrator above fans out to its
// children. Planning, retries, caching and versioning are the RO's.
//
// It forwards only the leaf's surface: no InstallBatch and no ShardSet, so
// an admission queue in front of a leaf dispatches one Install per request,
// and the traffic into a leaf stays per-request.
type LocalOrchestrator struct {
	ro   *ResourceOrchestrator
	caps []domain.Capability

	// southbound accumulates the device-programming counters this domain's
	// Programmer records (see southbound.go).
	southbound SouthboundRecorder
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
	if cfg.Capabilities == nil {
		cfg.Capabilities = []domain.Capability{domain.CapCompute, domain.CapForwarding}
	}
	ro := NewResourceOrchestrator(Config{ID: cfg.ID, Virtualizer: cfg.Virtualizer, Mapper: cfg.Mapper})
	lo := &LocalOrchestrator{ro: ro, caps: cfg.Capabilities}
	ro.prog = ProgrammerFunc(func(context.Context, *nffg.Delta, *nffg.NFFG) error { return nil })
	if prog := cfg.Programmer; prog != nil {
		// Every adapter's delta is checked, timed and, when it fails, undone
		// here, once: a delta whose context is done reaches no device, each
		// one that enters the Programmer is counted with its wall-clock, and
		// a failed one's additions are taken back (see undo).
		ro.prog = ProgrammerFunc(func(ctx context.Context, delta *nffg.Delta, next *nffg.NFFG) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			start := time.Now()
			err := prog.Commit(ctx, delta, next)
			lo.southbound.ObserveDelta(time.Since(start))
			if err != nil && (len(delta.AddNFs) > 0 || len(delta.AddRules) > 0) {
				return undo(ctx, prog, delta, next, err)
			}
			return err
		})
	}
	// The one terminal shard; its key is also what the leaf's ETag hashes. It
	// answers for no nodes: the leaf has one shard, so its index stays empty
	// and every request plans globally.
	ro.dir.Store(newShardDirectory().with(&shard{key: "substrate", dov: cfg.Substrate.Copy().Seal()}, nil))
	return lo, nil
}

// undoTimeout bounds the undo of a failed delta.
const undoTimeout = 5 * time.Second

// undo takes back whatever a failed delta may have applied of its additions
// — the devices may have run part of it, or all of it with the answer lost —
// by committing their removal through the same Programmer, so the devices
// and the leaf, which records nothing for a failed delta, agree and the same
// request can be installed again. A failed delta's deletions stay as the
// devices left them. The removal runs on a context detached from the failed
// one (a canceled install must still clean up), bounded by undoTimeout; its
// cfg is the failed delta's, which holds everything it removes. It is not
// counted as a delta, though the operations it sends are. undo returns
// cause, annotated if the removal fails too.
func undo(ctx context.Context, prog Programmer, delta *nffg.Delta, cfg *nffg.NFFG, cause error) error {
	back := &nffg.Delta{DelRules: delta.AddRules, DelNFs: make([]nffg.ID, len(delta.AddNFs))}
	for i, nf := range delta.AddNFs {
		back.DelNFs[i] = nf.ID
	}
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), undoTimeout)
	defer cancel()
	if err := prog.Commit(ctx, back, cfg); err != nil {
		return fmt.Errorf("%w (undo: %v)", cause, err)
	}
	return cause
}

// ID implements unify.Layer.
func (lo *LocalOrchestrator) ID() string { return lo.ro.ID() }

// Capabilities implements domain.Domain.
func (lo *LocalOrchestrator) Capabilities() []domain.Capability {
	return append([]domain.Capability(nil), lo.caps...)
}

// View implements unify.Layer (see ResourceOrchestrator.View).
func (lo *LocalOrchestrator) View(ctx context.Context) (*nffg.NFFG, error) { return lo.ro.View(ctx) }

// Install implements unify.Layer (see ResourceOrchestrator.Install).
func (lo *LocalOrchestrator) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	return lo.ro.Install(ctx, req)
}

// Remove implements unify.Layer (see ResourceOrchestrator.Remove).
func (lo *LocalOrchestrator) Remove(ctx context.Context, serviceID string) error {
	return lo.ro.Remove(ctx, serviceID)
}

// Services implements unify.Layer.
func (lo *LocalOrchestrator) Services() []string { return lo.ro.Services() }

// ViewVersion returns the current version of the leaf's exported view.
func (lo *LocalOrchestrator) ViewVersion() ViewVersion { return lo.ro.ViewVersion() }

// VersionedView returns the exported view with the version that names it.
func (lo *LocalOrchestrator) VersionedView(ctx context.Context) (*nffg.NFFG, ViewVersion, error) {
	return lo.ro.VersionedView(ctx)
}

// WaitVersion blocks until the leaf's generation exceeds from or ctx ends.
func (lo *LocalOrchestrator) WaitVersion(ctx context.Context, from uint64) (ViewVersion, error) {
	return lo.ro.WaitVersion(ctx, from)
}

// Southbound returns the recorder the domain's Programmer records
// device-programming counters into.
func (lo *LocalOrchestrator) Southbound() *SouthboundRecorder { return &lo.southbound }

// SouthboundStats implements SouthboundStatsProvider.
func (lo *LocalOrchestrator) SouthboundStats() SouthboundStats { return lo.southbound.Snapshot() }

// Internal returns a copy of the internal configured substrate (inspection
// and tests).
func (lo *LocalOrchestrator) Internal() *nffg.NFFG {
	graphs, _ := lo.ro.currentCut()
	return graphs[0].Copy()
}
