// Read replicas: a Replica is a unify.Layer that mirrors a remote writer's
// northbound view over the watch stream and serves every read locally —
// View, Services, Capabilities, stats — while writes are either proxied to
// the writer or refused with ErrReadOnly (503 + Location over HTTP). N
// stateless replicas behind one writer scale the read plane horizontally:
// each holds exactly one sealed view (the writer's, at the writer's ETag,
// byte-identical at equal generation vectors) and keeps serving it even if
// the writer dies — stale-but-available, which is precisely what a view
// cache is allowed to be.
package api

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// replicaState is one atomically-published sync point: the writer's sealed
// view, the version naming it, and the service list at the same cut.
type replicaState struct {
	view     *nffg.NFFG
	ver      core.ViewVersion
	services []string
}

// ReplicaStats is the replica's sync-state snapshot, surfaced on
// /v1/unify/healthz, /v1/unify/stats and /metrics.
type ReplicaStats struct {
	Writer string `json:"writer"`
	// Synced reports whether the replica holds a view at all.
	Synced bool `json:"synced"`
	// Generation/ETag name the writer version currently served.
	Generation uint64 `json:"generation"`
	ETag       string `json:"etag,omitempty"`
	// Events counts change events applied; Heartbeats idle poll windows;
	// Duplicates ETag-equal deliveries skipped (resume overlap).
	Events     uint64 `json:"events"`
	Heartbeats uint64 `json:"heartbeats"`
	Duplicates uint64 `json:"duplicates"`
	// Reconnects counts watch-loop restarts after transport failures.
	Reconnects uint64 `json:"reconnects"`
	// WritesProxied/WritesRefused count Install/Remove calls forwarded to
	// the writer vs refused with ErrReadOnly.
	WritesProxied uint64 `json:"writes_proxied"`
	WritesRefused uint64 `json:"writes_refused"`
}

// Replica mirrors a writer layer. Construct with NewReplica, start the sync
// loop with Start, serve it like any other layer (NewServer(replica, nil)
// plus Server.WithReplica for the health/metrics surfaces).
type Replica struct {
	id     string
	writer *Client
	// proxyWrites forwards Install/Remove to the writer instead of refusing
	// them (see ProxyWrites).
	proxyWrites bool
	// window is the watch poll window asked of the writer.
	window time.Duration

	state atomic.Pointer[replicaState]
	caps  atomic.Pointer[[]domain.Capability]

	// watch wakes local WaitVersion callers (chained watch streams: a
	// replica serves /v1/unify/watch too, so replicas can stack).
	watch core.ChangeNotifier

	stats struct {
		events, heartbeats, duplicates, reconnects atomic.Uint64
		writesProxied, writesRefused               atomic.Uint64
	}

	cancel context.CancelFunc
	done   chan struct{}
}

// ReplicaOption tunes NewReplica.
type ReplicaOption func(*Replica)

// ProxyWrites makes the replica forward Install/Remove to the writer instead
// of refusing them. Default off: a replica is read-only and answers writes
// with ErrReadOnly (HTTP 503 + Location naming the writer).
func ProxyWrites() ReplicaOption {
	return func(r *Replica) { r.proxyWrites = true }
}

// WithWatchWindow overrides the watch poll window (default 30s).
func WithWatchWindow(d time.Duration) ReplicaOption {
	return func(r *Replica) { r.window = d }
}

// NewReplica wraps a dialed writer client. id names this replica layer.
func NewReplica(id string, writer *Client, opts ...ReplicaOption) *Replica {
	r := &Replica{id: id, writer: writer, window: pollWindow, done: make(chan struct{})}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// Start launches the sync loop: an initial full fetch seeds the state, then
// the watch stream keeps it current, reconnecting with capped backoff after
// transport failures and resuming from the last seen generation. Stop() (or
// canceling ctx) ends it.
func (r *Replica) Start(ctx context.Context) {
	ctx, r.cancel = context.WithCancel(ctx)
	go r.run(ctx)
}

// Stop ends the sync loop and waits for it to exit. The replica keeps
// serving its last state afterwards.
func (r *Replica) Stop() {
	if r.cancel != nil {
		r.cancel()
		<-r.done
	}
}

// replicaBackoffMax caps the reconnect backoff of the sync loop.
const replicaBackoffMax = 5 * time.Second

func (r *Replica) run(ctx context.Context) {
	defer close(r.done)
	const initialBackoff = 250 * time.Millisecond
	backoff := initialBackoff
	for ctx.Err() == nil {
		var progressed bool
		err := r.sync(ctx, &progressed)
		if ctx.Err() != nil {
			return
		}
		if progressed {
			backoff = initialBackoff // the session was healthy; fail fast again
		}
		if err != nil {
			r.stats.reconnects.Add(1)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > replicaBackoffMax {
			backoff = replicaBackoffMax
		}
	}
}

// sync is one connected session: seed with a full (conditional) fetch, then
// loop the watch stream until a transport error or ctx end. progressed is
// set once the seed succeeds, so the caller resets its backoff.
func (r *Replica) sync(ctx context.Context, progressed *bool) error {
	view, ver, err := r.writer.ViewVersioned(ctx)
	if err != nil {
		return err
	}
	services, err := r.writer.ListServices(ctx)
	if err != nil {
		return err
	}
	if caps, err := r.writer.RemoteCapabilities(ctx); err == nil {
		r.caps.Store(&caps)
	}
	r.apply(view, ver, services)
	*progressed = true
	cursor := ver.Generation
	for {
		ev, changed, err := r.writer.WatchOnce(ctx, cursor, r.window)
		if err != nil {
			return err
		}
		switch {
		case changed && ev.View != nil:
			cur := r.state.Load()
			if cur != nil && cur.ver.ETag == ev.ETag && slices.Equal(cur.services, ev.Services) {
				// Resume overlap: the same content delivered again (the
				// stream trades duplicates for never losing a change).
				r.stats.duplicates.Add(1)
			} else {
				// An ETag-equal event with a different service list is a
				// service-table refresh (the writer bumps after deploy
				// completes without moving the shard vector) — apply it.
				r.apply(ev.View, core.ViewVersion{ETag: ev.ETag, Generation: ev.Generation}, ev.Services)
				r.stats.events.Add(1)
			}
			// The event's generation, not the maximum seen: a writer that
			// went back (restart, proxy switch) restarts the cursor with it.
			cursor = ev.Generation
		case ev.ETag != "" && r.etag() != "" && ev.ETag != r.etag():
			// A heartbeat naming content we don't hold: a change landed right
			// as the poll window closed. Keep the cursor — the next poll
			// returns that change immediately.
			r.stats.heartbeats.Add(1)
		default:
			// Idle heartbeat: fast-forward the cursor. Safe because the
			// heartbeat's ETag matches the content we already hold, so no
			// change can hide at or below its generation.
			r.stats.heartbeats.Add(1)
			if ev.Generation > cursor {
				cursor = ev.Generation
			}
		}
	}
}

// apply publishes one sync point (view must be sealed) and wakes waiters.
func (r *Replica) apply(view *nffg.NFFG, ver core.ViewVersion, services []string) {
	r.state.Store(&replicaState{view: view, ver: ver, services: services})
	r.watch.Wake()
}

func (r *Replica) etag() string {
	if st := r.state.Load(); st != nil {
		return st.ver.ETag
	}
	return ""
}

// WriterURL names the writer this replica mirrors (the Location hint of
// refused writes).
func (r *Replica) WriterURL() string { return r.writer.base }

// Stats snapshots the replica's sync state.
func (r *Replica) Stats() ReplicaStats {
	st := ReplicaStats{
		Writer:        r.writer.base,
		Events:        r.stats.events.Load(),
		Heartbeats:    r.stats.heartbeats.Load(),
		Duplicates:    r.stats.duplicates.Load(),
		Reconnects:    r.stats.reconnects.Load(),
		WritesProxied: r.stats.writesProxied.Load(),
		WritesRefused: r.stats.writesRefused.Load(),
	}
	if s := r.state.Load(); s != nil {
		st.Synced = true
		st.Generation = s.ver.Generation
		st.ETag = s.ver.ETag
	}
	return st
}

// --- unify.Layer / domain.Domain ---------------------------------------------

// ID implements unify.Layer.
func (r *Replica) ID() string { return r.id }

// View implements unify.Layer: the writer's last synced sealed view, served
// locally. Before the first sync completes it reports unify.ErrBusy — the
// replica exists but cannot answer yet (HTTP 503: retry).
func (r *Replica) View(ctx context.Context) (*nffg.NFFG, error) {
	v, _, err := r.VersionedView(ctx)
	return v, err
}

// VersionedView implements VersionedViewer: the synced view under the
// WRITER's version — replicas serve byte-identical content and identical
// ETags at equal generation vectors, so a client may validate against any
// node behind one writer.
func (r *Replica) VersionedView(ctx context.Context) (*nffg.NFFG, core.ViewVersion, error) {
	if err := ctx.Err(); err != nil {
		return nil, core.ViewVersion{}, err
	}
	st := r.state.Load()
	if st == nil {
		return nil, core.ViewVersion{}, fmt.Errorf("%w: replica %s not yet synced with %s", unify.ErrBusy, r.id, r.writer.base)
	}
	return st.view, st.ver, nil
}

// ViewVersion implements VersionedViewer (zero-valued before the first sync).
func (r *Replica) ViewVersion() core.ViewVersion {
	if st := r.state.Load(); st != nil {
		return st.ver
	}
	return core.ViewVersion{}
}

// WaitVersion implements VersionWaiter against the replica's local sync
// state, so watch streams chain: a client watching a replica is woken by the
// replica's own sync loop applying the writer's events.
func (r *Replica) WaitVersion(ctx context.Context, from uint64) (core.ViewVersion, error) {
	return r.watch.WaitVersion(ctx, from, r.ViewVersion)
}

// Install implements unify.Layer: proxied to the writer when ProxyWrites is
// set, refused with ErrReadOnly otherwise.
func (r *Replica) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	if !r.proxyWrites {
		r.stats.writesRefused.Add(1)
		return nil, fmt.Errorf("%w: install must go to the writer at %s", ErrReadOnly, r.writer.base)
	}
	r.stats.writesProxied.Add(1)
	return r.writer.Install(ctx, req)
}

// Remove implements unify.Layer; same write policy as Install.
func (r *Replica) Remove(ctx context.Context, serviceID string) error {
	if !r.proxyWrites {
		r.stats.writesRefused.Add(1)
		return fmt.Errorf("%w: remove must go to the writer at %s", ErrReadOnly, r.writer.base)
	}
	r.stats.writesProxied.Add(1)
	return r.writer.Remove(ctx, serviceID)
}

// Services implements unify.Layer: the service list at the synced cut.
func (r *Replica) Services() []string {
	if st := r.state.Load(); st != nil {
		return st.services
	}
	return nil
}

// Capabilities implements domain.Domain: the writer's advertisement, fetched
// at sync time.
func (r *Replica) Capabilities() []domain.Capability {
	if c := r.caps.Load(); c != nil {
		return *c
	}
	return nil
}
