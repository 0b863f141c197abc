// Crash recovery of the resource orchestrator: restoring shard graphs, the
// service table, and identifier reservations from journal state, re-attaching
// child domains without re-merging their views, and producing the shard
// snapshots the journal's checkpointer persists. Restore builds its directory
// shard by shard through the same constructor Attach uses, with every child's
// handle nil; Reattach hands a child's handle back in one directory swap.
//
// See ARCHITECTURE.md, "Durability", for the full recovery sequence and the
// ordering contracts the functions here rely on.
package core

import (
	"context"
	"fmt"
	"log"
	"maps"
	"slices"
	"sort"

	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/journal"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// Journal is the write-ahead hook the orchestrator calls on its commit paths
// (implemented by *journal.Store). Attach/commit/release/detach appends
// happen inside publishLocked with the target shard's lock held, so
// implementations must never block on orchestrator state; deployed records
// are appended lock-free after the service table update.
type Journal interface {
	LogAttach(shard string, gen, epoch uint64, child, dovID string, view *nffg.NFFG) error
	LogCommit(shard string, gen, epoch uint64, svcs []journal.ServiceCommit) error
	LogRelease(shard string, gen, epoch uint64, serviceIDs []string) error
	LogDeployed(shard string, epoch uint64, rec journal.DeployedRecord) error
	LogDetach(shard string, gen, epoch uint64, child string, serviceIDs []string) error
}

// Restore loads recovered journal state into a freshly constructed
// orchestrator: shard graphs with their generations, the service table with
// receipts and identifier reservations, the child-domain ownership map, and
// the commit epoch. It must run before any Attach or Install; restoring onto
// an orchestrator that already has state is an error.
//
// Restored children are present in the DoV but not yet reachable — call
// Reattach (not Attach: the view is already merged) for each before serving
// installs or removals.
func (ro *ResourceOrchestrator) Restore(state *journal.RecoveredState) error {
	if state == nil || state.Empty() {
		return nil
	}
	ro.mu.Lock()
	defer ro.mu.Unlock()
	if len(ro.dir.Load().keys) != 0 || len(ro.services) != 0 {
		return fmt.Errorf("core: Restore on a non-empty orchestrator")
	}

	// Dropped shards keep their generation floors, so a post-restart
	// re-attach of the same key stays gen-monotone in its journal log.
	dir := newShardDirectory()
	maps.Copy(dir.floors, state.Detached)
	for _, rs := range state.Shards {
		g := rs.Graph
		if g == nil {
			g = nffg.New(ro.id + "-dov")
		}
		sh := &shard{
			key:         rs.Key,
			dov:         g.Seal(),
			gen:         rs.Gen,
			commits:     rs.Gen, // preserve the Gen == Commits invariant
			restoredGen: rs.Gen,
		}
		children := make([]member, 0, len(rs.ChildInfras))
		for child, infras := range rs.ChildInfras {
			children = append(children, member{id: child, infras: infras})
		}
		dir = dir.with(sh, ro.shardContribution(sh.dov), children...)
	}

	for _, sc := range state.Services {
		if sc.Mapping == nil {
			continue
		}
		rec := &serviceRecord{
			state:    stateReady,
			mapping:  sc.Mapping,
			children: map[string][]string{},
			receipt:  sc.Receipt,
			shards:   sc.Touched,
		}
		for child, subs := range sc.Children {
			rec.children[child] = append([]string(nil), subs...)
		}
		if rec.receipt == nil {
			// Crash landed between commit and southbound completion: the
			// resources are held and the children may be partially
			// programmed. Surface the mapping-level receipt; Remove tears
			// down whatever the children actually hold.
			rec.receipt = mappingReceipt(sc.ServiceID, sc.Mapping)
		}
		ro.reserveLocked(sc.ServiceID, sc.Mapping.Request, rec)
	}

	ro.dir.Store(dir)
	ro.epoch.Store(state.Epoch)
	return nil
}

// ServiceReceipts maps every installed service to its receipt — the
// reconciliation input for admission.BuildResumePlans: a recovered job whose
// service already has a receipt here committed before the crash and must not
// be re-installed.
func (ro *ResourceOrchestrator) ServiceReceipts() map[string]*unify.Receipt {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	out := make(map[string]*unify.Receipt, len(ro.services))
	for id, rec := range ro.services {
		if rec.receipt != nil {
			out[id] = rec.receipt
		}
	}
	return out
}

// Reattach registers a child domain whose exported view is already part of
// the recovered DoV: unlike Attach it must NOT re-merge the view — the
// recovered shard graphs already contain it plus every committed allocation,
// so a second merge would double-count resources. It verifies the child is
// reachable and warns (only) when the child's infra set drifted from the
// recovered one. Children unknown to the recovered state fall through to a
// normal Attach.
func (ro *ResourceOrchestrator) Reattach(ctx context.Context, d domain.Domain) error {
	id := d.ID()
	m, known := ro.dir.Load().children[id]
	if !known {
		return ro.Attach(ctx, d)
	}
	if m.d != nil {
		return fmt.Errorf("%w: %s", domain.ErrDuplicate, id)
	}
	view, err := d.View(ctx)
	if err != nil {
		return fmt.Errorf("core: reattach %s: %w", id, err)
	}
	// Drift check: the child's current infra set vs what the journal says it
	// exported. A drifted child still reattaches — its committed services
	// must stay removable — but the operator is told.
	for _, inf := range view.InfraIDs() { // infra IDs are not qualified at attach; links are
		if !slices.Contains(m.infras, inf) {
			log.Printf("core %s: reattach %s: infra %s not in recovered view (domain drifted since the journal was written)", ro.id, id, inf)
		}
	}
	ro.mu.Lock()
	defer ro.mu.Unlock()
	cur := ro.dir.Load()
	switch m, known = cur.children[id]; {
	case !known:
		return fmt.Errorf("core: reattach %s: detached during the view fetch: %w", id, domain.ErrUnknown)
	case m.d != nil:
		return fmt.Errorf("%w: %s", domain.ErrDuplicate, id)
	}
	m.d = d
	ro.dir.Store(cur.with(cur.shards[m.key], nil, m))
	return nil
}

// ShardSnapshots produces the checkpoint source for
// journal.(*Store).StartCheckpoints: every shard's sealed graph + generation,
// the child domains exporting into it, and the services homed on it.
//
// Ordering contract with the commit path: shard graphs are read FIRST (each
// under its shard lock), the service table SECOND. The commit path updates
// the table before releasing the shard locks, so any graph state that
// contains a commit is guaranteed to find that commit's mapping in the table
// — the checkpoint can overshoot the table (a service whose resources are
// not yet in the captured graph; its commit record replays on top) but never
// undershoot it (resources in the graph with no owning service).
func (ro *ResourceOrchestrator) ShardSnapshots() []journal.ShardSnapshot {
	dir := ro.dir.Load()

	type cut struct {
		graph *nffg.NFFG
		gen   uint64
	}
	cuts := make(map[string]cut, len(dir.keys))
	for _, key := range dir.keys {
		sh := dir.shards[key]
		sh.mu.Lock()
		cuts[key] = cut{graph: sh.dov, gen: sh.gen}
		sh.mu.Unlock()
	}
	epoch := ro.epoch.Load()

	svcByShard := map[string][]journal.ServiceCheckpoint{}
	ro.mu.Lock()
	ids := make([]string, 0, len(ro.services))
	for id := range ro.services {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		rec := ro.services[id]
		// A record without a mapping has not committed yet — its commit
		// record (if any lands) replays from the WAL. Removing services are
		// kept: if the release never commits before a crash, the resources
		// are still held and the service must stay removable.
		if rec.mapping == nil || len(rec.shards) == 0 {
			continue
		}
		children := make(map[string][]string, len(rec.children))
		for c, subs := range rec.children {
			children[c] = append([]string(nil), subs...)
		}
		home := rec.shards[0]
		svcByShard[home] = append(svcByShard[home], journal.ServiceCheckpoint{
			ServiceID: id,
			Mapping:   rec.mapping,
			Touched:   rec.shards,
			Home:      home,
			Children:  children,
			Receipt:   rec.receipt,
			Deployed:  rec.state == stateReady,
		})
	}
	ro.mu.Unlock()

	childInfras := map[string]map[string][]nffg.ID{}
	for id, m := range dir.children {
		if childInfras[m.key] == nil {
			childInfras[m.key] = map[string][]nffg.ID{}
		}
		childInfras[m.key][id] = m.infras
	}

	snaps := make([]journal.ShardSnapshot, 0, len(dir.keys))
	for _, key := range dir.keys {
		c := cuts[key]
		snaps = append(snaps, journal.ShardSnapshot{
			Key:         key,
			Gen:         c.gen,
			Epoch:       epoch,
			Graph:       c.graph,
			ChildInfras: childInfras[key],
			Services:    svcByShard[key],
		})
	}
	return snaps
}
