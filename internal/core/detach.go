// Runtime detach of a child domain: the inverse of Attach. Detach swaps in
// the directory without the child — its shard, its infra ownership and its
// reverse index entries leave in that one value, and the nodes nobody else
// answers for are tombstoned — and displaces the services whose embeddings
// depended on the departing child so the fleet controller can re-embed them
// onto survivors. All of it is one publish: the survivors' releases, the
// departing shard's final generation and the directory swap happen under
// every shard lock and ro.mu, at one epoch, so every cut a reader takes (see
// lockCurrent) is wholly before or wholly after the detach. The
// generation-keyed read caches need no explicit invalidation: the shard set
// and the generations change, so cached cuts and views miss.
package core

import (
	"context"
	"fmt"
	"log"
	"slices"

	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/journal"
	"github.com/unify-repro/escape/internal/nffg"
)

// DisplacedService describes one service Detach evicted: its original
// request graph (the re-embedding input) and the sub-services it had
// installed per child (already torn down on survivors, unreachable on the
// departed child).
type DisplacedService struct {
	ServiceID string
	Request   *nffg.NFFG
	Children  map[string][]string
}

// DetachReport summarizes a completed Detach.
type DetachReport struct {
	Child     string
	Shard     string
	Displaced []DisplacedService
}

// Detach removes a child domain from the live orchestrator: it drops the
// child and its shard from the directory (tombstoning nodes that no other
// child serves, see checkDomainsLocked), releases the DoV resources of every
// service whose embedding touched the child, and tears the affected services
// down on the surviving children. The displaced services are returned for
// re-embedding — Detach itself does not re-install them.
//
// Detach requires the child to be its shard's only tenant (true under the
// default ShardPerDomain sharding): the graph layer has no per-infra removal,
// so a shared shard cannot shed one child's nodes. SingleShard configurations
// therefore cannot hot-detach.
//
// Concurrency: Detach locks every shard of the directory in key order, then
// ro.mu, and publishes the survivors' release forks plus the departing
// shard's final generation in that one scope, then swaps in the directory
// without the child (whose floor is that final generation) and drops the
// displaced services' table entries. The child's handle leaves with the swap.
// In-flight installs that touched any published shard lose their commit race
// and re-plan against the post-detach directory; installs already committed
// but not yet deployed fail their southbound fan-out on the departed child
// and self-release. After the locks drop, Detach tears the displaced services
// down on the survivors (best-effort, logged) and returns once that teardown
// has finished.
//
// Crash note: each survivor's release record (listing the displaced services
// that touch it) and the departing shard's detach record share the publish's
// epoch, and replay ranks releases before a detach within one epoch, so it
// frees the survivors' resources before it drops the displaced services. A
// crash before the publish resurrects the pre-detach fleet — the controller
// re-probes and re-evicts; a crash after it may leave sub-services on the
// survivors that the interrupted teardown did not reach.
func (ro *ResourceOrchestrator) Detach(ctx context.Context, child string) (*DetachReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	locked, shs := ro.lockCurrent(nil)
	ro.mu.Lock()
	unlock := func() {
		ro.mu.Unlock()
		unlockAll(shs)
	}
	// Since the shards were locked, only a Reattach or an attach of a new key
	// can have swapped the directory, and neither touched a locked shard: the
	// current directory is the one to edit, and a child on a shard the locked
	// one lacks attached after this detach began.
	dir := ro.dir.Load()
	m, ok := dir.children[child]
	if !ok || locked.shards[m.key] == nil {
		unlock()
		return nil, fmt.Errorf("core: detach %s: %w", child, domain.ErrUnknown)
	}
	key := m.key
	if tenants := dir.domains[key]; len(tenants) > 1 {
		unlock()
		return nil, fmt.Errorf("core: detach %s: shard %s hosts %v — runtime detach requires per-domain sharding", child, key, tenants)
	}
	sh := dir.shards[key]

	// Displace every deployed service whose embedding touched the shard (or
	// that installed sub-services on the child). Services with an operation
	// in flight are left alone: a pending install loses its commit race or
	// fails its fan-out and self-cleans; a removal releases what survives.
	var evicted []string
	for id, rec := range ro.services {
		if rec.state == stateReady && (slices.Contains(rec.shards, key) || len(rec.children[child]) > 0) {
			evicted = append(evicted, id)
		}
	}
	slices.Sort(evicted)

	// Each survivor a displaced service touches releases it on a fork and
	// journals it; the departing shard's graph dies with it.
	released := map[string][]string{} // survivor key -> displaced services
	mappings := map[string][]*embed.Mapping{}
	for _, id := range evicted {
		rec := ro.services[id]
		for _, k := range rec.shards {
			if k != key && rec.mapping != nil {
				released[k] = append(released[k], id)
				mappings[k] = append(mappings[k], rec.mapping)
			}
		}
	}
	pub := locked.ordered(append(sortedKeys(released), key))
	next := make([]*nffg.NFFG, len(pub))
	for i, s := range pub {
		if s == sh {
			continue
		}
		g, err := releaseFork(s, mappings[s.key]...)
		if err != nil {
			log.Printf("core %s: detach %s: release on %s: %v", ro.id, child, s.key, err)
		}
		next[i] = g
	}
	_ = ro.publishLocked(ctx, pub, next, func(s *shard) shardRecord {
		if s == sh {
			return shardRecord{kind: journal.KindDetach, child: child, ids: evicted}
		}
		return shardRecord{kind: journal.KindRelease, ids: released[s.key]}
	})
	// Swapped after the publish, so the key's floor is the shard's final
	// generation and a re-attach keeps it rising.
	dir = dir.without(child)
	ro.dir.Store(dir)

	report := &DetachReport{Child: child, Shard: key}
	survivors := map[string][]string{} // surviving child -> sub-services to tear down
	for _, id := range evicted {
		rec := ro.services[id]
		ro.dropReservationsLocked(id, rec)
		ds := DisplacedService{ServiceID: id, Children: map[string][]string{}}
		if rec.mapping != nil && rec.mapping.Request != nil {
			ds.Request = rec.mapping.Request.Copy()
			// Host pins to nodes nobody answers for anymore cannot be honored
			// by a re-embedding: clear them so the mapper is free to place the
			// NF on a survivor. Pins to nodes a surviving child still exports
			// (shared border infrastructure) are kept.
			for _, nf := range ds.Request.NFs.All() {
				if nf.Host != "" && len(dir.index[nf.Host]) == 0 {
					nf.Host = ""
				}
			}
		}
		for c, subs := range rec.children {
			ds.Children[c] = append([]string(nil), subs...)
			if c != child {
				survivors[c] = append(survivors[c], subs...)
			}
		}
		report.Displaced = append(report.Displaced, ds)
	}
	unlock()

	// Tear the displaced services down on the surviving children (the
	// departed child is unreachable; whatever it still holds dies with it).
	// Best-effort: the publish already freed the survivors' DoV capacity.
	if err := ro.teardown(ctx, survivors); err != nil {
		log.Printf("core %s: detach %s: teardown: %v", ro.id, child, err)
	}
	return report, nil
}
