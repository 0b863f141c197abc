// Runtime detach of a child domain: the inverse of Attach. Detach unwinds
// everything attach-time registration built — the shard directory entry, the
// infra ownership map, the reverse shard index contribution — and displaces
// the services whose embeddings depended on the departing child so the fleet
// controller can re-embed them onto survivors. All of it is one publish: the
// directory swap, the survivors' releases and the departing shard's final
// generation happen under every shard lock and ro.mu, at one epoch, so every
// cut a reader takes (see lockCurrent) is wholly before or wholly after the
// detach. The generation-keyed read caches need no explicit invalidation:
// the shard set and the generations change, so cached cuts and views miss.
package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"maps"
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
// child's shard from the directory, retires its infra ownership and reverse
// index contribution (tombstoning nodes that no other child serves, see
// checkDomainsLocked), releases the DoV resources of every service whose
// embedding touched the child, and tears the affected services down on the
// surviving children. The displaced services are returned for re-embedding —
// Detach itself does not re-install them.
//
// Detach requires the child to be its shard's only tenant (true under the
// default ShardPerDomain sharding): the graph layer has no per-infra removal,
// so a shared shard cannot shed one child's nodes. SingleShard configurations
// therefore cannot hot-detach.
//
// Concurrency: Detach locks every shard of the directory in key order, then
// ro.mu, and publishes the survivors' release forks plus the departing
// shard's final generation in that one scope, together with the directory
// swap and the displaced services' table entries. In-flight installs that
// touched any published shard lose their commit race and re-plan against the
// post-detach directory; installs already committed but not yet deployed
// fail their southbound fan-out on the departed child and self-release.
// Only after the publish does Detach deregister the child and tear the
// displaced services down on the survivors (best-effort, logged); it returns
// once that teardown has finished.
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
	var dir *shardDirectory
	var shs []*shard
	for {
		dir, _, shs = ro.lockCurrent(nil)
		ro.mu.Lock()
		if ro.dir == dir {
			break
		}
		ro.mu.Unlock()
		unlockAll(shs)
	}
	unlock := func() {
		ro.mu.Unlock()
		unlockAll(shs)
	}
	key, ok := dir.childShard[child]
	if !ok {
		unlock()
		return nil, fmt.Errorf("core: detach %s: %w", child, domain.ErrUnknown)
	}
	if others := exclude(dir.domains[key], child); len(others) > 0 {
		unlock()
		return nil, fmt.Errorf("core: detach %s: shard %s also hosts %v — runtime detach requires per-domain sharding", child, key, others)
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
	pub := dir.ordered(append(sortedKeys(released), key))
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

	departedNodes := ro.contrib[key].nodes
	contrib := maps.Clone(ro.contrib)
	delete(contrib, key)
	ro.dir, ro.owner, ro.contrib = dir.without(child, true), ownerWithout(ro.owner, child), contrib
	ro.rebuildIndexLocked()
	// Tombstone the nodes nobody answers for anymore; shared border SAPs a
	// surviving child still exports stay in the index and need none.
	for node := range departedNodes {
		if len(ro.index[node]) == 0 {
			ro.departed[node] = child
		}
	}
	_ = ro.publishLocked(ctx, pub, next, func(s *shard) shardRecord {
		if s == sh {
			return shardRecord{kind: journal.KindDetach, child: child, ids: evicted}
		}
		return shardRecord{kind: journal.KindRelease, ids: released[s.key]}
	})
	// Resume point for a future re-attach of this key: generations must keep
	// rising across the cycle.
	ro.lastGen[key] = sh.gen

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
				if nf.Host != "" && len(ro.index[nf.Host]) == 0 {
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

	if err := ro.reg.Deregister(child); err != nil && !errors.Is(err, domain.ErrUnknown) {
		log.Printf("core %s: detach %s: deregister: %v", ro.id, child, err)
	}
	// Tear the displaced services down on the surviving children (the
	// departed child is unreachable; whatever it still holds dies with it).
	// Best-effort: the publish already freed the survivors' DoV capacity.
	if err := ro.teardown(ctx, survivors); err != nil {
		log.Printf("core %s: detach %s: teardown: %v", ro.id, child, err)
	}
	return report, nil
}
