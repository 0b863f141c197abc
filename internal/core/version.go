package core

// The versioned read plane: every layer that serves a northbound view can
// name the version it serves — a strong ETag derived from the generation
// state that keys the read caches, plus the scalar commit epoch — and can
// block until that version moves. The API tier builds conditional GETs
// (If-None-Match → 304), long-poll watch streams, and read replicas on top
// of exactly these three primitives; nothing here knows about HTTP.
//
// Ordering discipline: version readers load the scalar generation BEFORE
// snapshotting the cut/graph it describes. A commit landing in between makes
// the served content NEWER than the advertised generation — so a watcher
// resuming from that generation may see the same content twice (deduped by
// ETag), but can never miss a committed change.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"github.com/unify-repro/escape/internal/nffg"
)

// ViewVersion names one published northbound view.
type ViewVersion struct {
	// ETag is a strong validator: two equal ETags from the same layer denote
	// byte-identical sealed views, because the tag hashes the generation
	// vector that keys the view cache and a shard graph is only ever
	// replaced under a generation bump. The tag is unquoted; HTTP framing
	// (quoting, If-None-Match parsing) is the API layer's business.
	ETag string
	// Generation is the scalar commit epoch the view is AT LEAST as new as —
	// the resume cursor for watch streams (strictly monotonic per process).
	Generation uint64
}

// etagOf hashes a layer's canonical generation state into a strong ETag.
func etagOf(id string, keys []string, gens []uint64) string {
	var b strings.Builder
	b.WriteString(id)
	for i, k := range keys {
		fmt.Fprintf(&b, "\x00%s=%d", k, gens[i])
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// etag derives the strong view validator of one consistent cut.
func (v genVec) etag(id string) string { return etagOf(id, v.keys, v.gens) }

// ChangeNotifier is a closed-channel broadcast of version changes: Wake
// releases every goroutine parked in WaitVersion. The zero value is ready; a
// layer that exports versions (the resource orchestrator, a read replica)
// holds one and wakes it after each version it publishes.
type ChangeNotifier struct {
	mu sync.Mutex
	ch chan struct{}
}

// Wake releases all current waiters. Cheap enough to call inside commit
// critical sections: a mutex hop plus, at most, one channel close.
func (n *ChangeNotifier) Wake() {
	n.mu.Lock()
	if n.ch != nil {
		close(n.ch)
		n.ch = nil
	}
	n.mu.Unlock()
}

// WaitVersion blocks until current reports a generation above from
// (returning that version) or ctx ends. It arms the channel before each
// check, so a Wake landing between the check and the park still wakes it.
// The channel is made lazily, so idle layers carry none.
func (n *ChangeNotifier) WaitVersion(ctx context.Context, from uint64, current func() ViewVersion) (ViewVersion, error) {
	for {
		n.mu.Lock()
		if n.ch == nil {
			n.ch = make(chan struct{})
		}
		ch := n.ch
		n.mu.Unlock()
		if v := current(); v.Generation > from {
			return v, nil
		}
		select {
		case <-ctx.Done():
			return ViewVersion{}, ctx.Err()
		case <-ch:
		}
	}
}

// --- ResourceOrchestrator ----------------------------------------------------

// ViewVersion returns the current version of the northbound view without
// computing the view itself — the cheap path behind conditional GETs.
func (ro *ResourceOrchestrator) ViewVersion() ViewVersion {
	gen := ro.nbGen() // before the cut: content ≥ advertised generation
	_, vec := ro.currentCut()
	return ViewVersion{ETag: vec.etag(ro.id), Generation: gen}
}

// VersionedView returns the northbound view together with the version that
// names it. The view is a SHARED sealed snapshot (Copy before mutating); the
// version's ETag matches the exact cut the view derives from.
func (ro *ResourceOrchestrator) VersionedView(ctx context.Context) (*nffg.NFFG, ViewVersion, error) {
	if err := ctx.Err(); err != nil {
		return nil, ViewVersion{}, err
	}
	gen := ro.nbGen() // before the cut (see package comment)
	graphs, vec := ro.currentCut()
	v, err := ro.viewFromCut(graphs, vec)
	if err != nil {
		return nil, ViewVersion{}, err
	}
	return v, ViewVersion{ETag: vec.etag(ro.id), Generation: gen}, nil
}

// WaitVersion blocks until the layer's generation exceeds from (returning
// the version that crossed it) or ctx ends. from=0 with any committed change
// already applied returns immediately — callers resume a watch by passing
// the last generation they saw.
func (ro *ResourceOrchestrator) WaitVersion(ctx context.Context, from uint64) (ViewVersion, error) {
	return ro.watch.WaitVersion(ctx, from, ro.ViewVersion)
}

// nbGen is the northbound version cursor: the commit epoch plus the
// service-table version. Both counters only grow, so the sum is monotonic;
// loading them separately can only under-read, which keeps the "content is
// at least as new as advertised" invariant.
func (ro *ResourceOrchestrator) nbGen() uint64 {
	return ro.epoch.Load() + ro.tableVer.Load()
}

// bumpTable advances the northbound version for a service-table visibility
// change — a deploy completing or a removed record dropping — without
// counting a DoV commit. The shard vector (and thus the ETag) is unchanged;
// the bump exists so watch streams deliver the refreshed service list.
func (ro *ResourceOrchestrator) bumpTable() {
	ro.tableVer.Add(1)
	ro.watch.Wake()
}
