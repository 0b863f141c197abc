// Runtime detach of a child domain: the inverse of Attach. Detach unwinds
// everything attach-time registration built — the shard directory entry, the
// infra ownership map, the reverse shard index contribution — and displaces
// the services whose embeddings depended on the departing child so the fleet
// controller can re-embed them onto survivors. The generation-keyed read
// caches need no explicit invalidation: removing a shard key changes every
// subsequent generation vector, so cached cuts and views miss naturally and
// readers holding the old directory snapshot still see a consistent
// (pre-detach) cut, never a torn one.
package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"strings"
	"sync"

	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
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
// Concurrency: in-flight installs that touched the shard lose their commit
// race (the final generation bump below) and re-plan against the post-detach
// directory; installs already committed but not yet deployed fail their
// southbound fan-out on the departed child and self-release. Readers keep
// serving consistent pre-detach cuts until their next directory fetch.
//
// Crash note: the detach journal record is appended after the displaced
// services' release records so replay frees survivors' resources before
// dropping the service table entries. A crash before the record simply
// resurrects the pre-detach fleet — the controller re-probes and re-evicts.
func (ro *ResourceOrchestrator) Detach(ctx context.Context, child string) (*DetachReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ro.mu.Lock()
	key, ok := ro.dir.childShard[child]
	if !ok {
		ro.mu.Unlock()
		return nil, fmt.Errorf("core: detach %s: %w", child, domain.ErrUnknown)
	}
	sh := ro.dir.shards[key]
	if others := exclude(ro.dir.domains[key], child); len(others) > 0 {
		ro.mu.Unlock()
		return nil, fmt.Errorf("core: detach %s: shard %s also hosts %v — runtime detach requires per-domain sharding", child, key, others)
	}
	ro.mu.Unlock()

	// Lock order: shard mutex before ro.mu. Holding sh.mu across the
	// directory swap AND the generation bump is what makes the detach atomic
	// against the commit path: any commit touching this shard either finished
	// before we got the lock (its service is in the table and displaced
	// below) or validates its generation after our bump, loses, and re-plans
	// against the post-detach directory.
	sh.mu.Lock()
	ro.mu.Lock()
	if ro.dir.childShard[child] != key || ro.dir.shards[key] != sh {
		ro.mu.Unlock()
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: fleet membership changed during detach of %s", unify.ErrBusy, child)
	}

	// Displace every deployed service whose embedding touched the shard (or
	// that installed sub-services on the child). Marking them stateRemoving
	// excludes concurrent Remove/Detach; pending installs are left alone —
	// they either lose the commit race or fail their fan-out and self-clean.
	type displaced struct {
		id  string
		rec *serviceRecord
	}
	var evicted []displaced
	for id, rec := range ro.services {
		if rec.state != stateReady {
			continue
		}
		if slices.Contains(rec.shards, key) || len(rec.children[child]) > 0 {
			rec.state = stateRemoving
			evicted = append(evicted, displaced{id: id, rec: rec})
		}
	}
	slices.SortFunc(evicted, func(a, b displaced) int {
		return strings.Compare(a.id, b.id)
	})

	dir := ro.dir.clone()
	delete(dir.childShard, child)
	delete(dir.shards, key)
	delete(dir.domains, key)
	dir.keys = exclude(dir.keys, key)
	owner := make(map[nffg.ID]string, len(ro.owner))
	for k, v := range ro.owner {
		if v != child {
			owner[k] = v
		}
	}
	contrib := make(map[string]shardContrib, len(ro.contrib))
	for k, v := range ro.contrib {
		if k != key {
			contrib[k] = v
		}
	}
	departedNodes := ro.contrib[key].nodes
	// Resume point for a future re-attach of this key: generations must keep
	// rising across the cycle (sh.gen is bumped right below).
	ro.lastGen[key] = sh.gen + 1
	ro.dir, ro.owner, ro.contrib = dir, owner, contrib
	ro.rebuildIndexLocked()
	// Tombstone the nodes nobody answers for anymore; shared border SAPs a
	// surviving child still exports stay in the index and need none.
	for node := range departedNodes {
		if len(ro.index[node]) == 0 {
			ro.departed[node] = child
		}
	}
	ro.mu.Unlock()

	// Final generation bump: in-flight optimistic commits against the old
	// cut now fail validation and re-snapshot. No journal record yet — the
	// detach record must order after the displaced services' releases.
	sh.gen++
	sh.commits++
	finalGen := sh.gen
	sh.mu.Unlock()

	if err := ro.reg.Deregister(child); err != nil && !errors.Is(err, domain.ErrUnknown) {
		log.Printf("core %s: detach %s: deregister: %v", ro.id, child, err)
	}

	report := &DetachReport{Child: child, Shard: key}
	displacedIDs := make([]string, 0, len(evicted))
	for _, ev := range evicted {
		displacedIDs = append(displacedIDs, ev.id)
		ds := DisplacedService{ServiceID: ev.id, Children: map[string][]string{}}
		if ev.rec.mapping != nil && ev.rec.mapping.Request != nil {
			ds.Request = ev.rec.mapping.Request.Copy()
			// Host pins to nodes nobody answers for anymore cannot be honored
			// by a re-embedding: clear them so the mapper is free to place the
			// NF on a survivor. Pins to nodes a surviving child still exports
			// (shared border infrastructure) are kept.
			ro.mu.Lock()
			for _, nf := range ds.Request.NFs.All() {
				if nf.Host != "" && len(ro.index[nf.Host]) == 0 {
					nf.Host = ""
				}
			}
			ro.mu.Unlock()
		}
		for c, subs := range ev.rec.children {
			ds.Children[c] = append([]string(nil), subs...)
		}
		report.Displaced = append(report.Displaced, ds)
	}

	// Tear the displaced services down on the surviving children (the
	// departed child is unreachable; whatever it still holds dies with it).
	// Best-effort: a failed teardown is logged, the DoV release below still
	// frees the survivors' capacity for the re-embedding.
	var wg sync.WaitGroup
	for _, ev := range evicted {
		for childID, subIDs := range ev.rec.children {
			if childID == child {
				continue
			}
			d, err := ro.reg.Get(childID)
			if err != nil {
				log.Printf("core %s: detach %s: teardown on %s: %v", ro.id, child, childID, err)
				continue
			}
			for _, subID := range subIDs {
				wg.Add(1)
				go func(d domain.Domain, childID, subID string) {
					defer wg.Done()
					if err := d.Remove(ctx, subID); err != nil && !errors.Is(err, unify.ErrUnknownService) {
						log.Printf("core %s: detach %s: remove %s on %s: %v", ro.id, child, subID, childID, err)
					}
				}(d, childID, subID)
			}
		}
	}
	wg.Wait()

	// Release the displaced services' DoV resources on surviving shards and
	// drop their reservations; the dropped shard's share dies with the shard.
	for _, ev := range evicted {
		if surviving := exclude(ev.rec.shards, key); len(surviving) > 0 && ev.rec.mapping != nil {
			if err := ro.releaseShards(ctx, ev.id, ev.rec.mapping, surviving); err != nil {
				log.Printf("core %s: detach %s: release %s: %v", ro.id, child, ev.id, err)
			}
		}
		ro.mu.Lock()
		ro.dropReservationsLocked(ev.id, ev.rec)
		ro.mu.Unlock()
	}

	epoch := ro.bumpEpoch()
	if ro.journal != nil {
		if err := ro.journal.LogDetach(key, finalGen, epoch, child, true, displacedIDs); err != nil {
			ro.stats.journalErrs.Add(1)
			log.Printf("core %s: journal detach %s: %v", ro.id, child, err)
		}
	}
	return report, nil
}

// exclude returns s without any element equal to drop (allocating a copy).
func exclude(s []string, drop string) []string {
	out := make([]string, 0, len(s))
	for _, v := range s {
		if v != drop {
			out = append(out, v)
		}
	}
	return out
}
