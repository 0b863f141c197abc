// The distributed read plane of the HTTP API: conditional (generation-keyed)
// views, the long-poll watch stream, and the consolidated stats document.
//
//	GET /v1/unify/view   -> NFFG, with a strong ETag derived from the layer's
//	                        generation vector and X-Unify-Generation carrying
//	                        the scalar commit epoch. If-None-Match on a
//	                        matching tag answers 304 with an empty body — the
//	                        steady-state remote View is one header-only round
//	                        trip.
//	GET /v1/unify/watch  -> long-poll for generation bumps: ?from=<gen> blocks
//	                        until the layer's generation exceeds it (200 + a
//	                        WatchEvent carrying the full sealed view), or the
//	                        ?timeout= window (at most 30 s) expires (202 + a
//	                        heartbeat event naming the current version, no
//	                        view). Reconnecting
//	                        with the last seen generation resumes the stream;
//	                        duplicates are possible (dedupe by ETag), losses
//	                        are not.
//	GET /v1/unify/stats  -> StatsDoc: pipeline + admission + southbound +
//	                        journal + fleet (+ replica sync state) in one
//	                        document — the same counters /metrics renders.
//
// The client side mirrors it: Client.View holds one sealed cached graph
// keyed by the server's ETag and revalidates with If-None-Match, and
// WatchOnce is the single-poll building block replicas loop on.
package api

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/journal"
	"github.com/unify-repro/escape/internal/nffg"
)

const (
	// APIVersion is the northbound surface version: every /unify route is
	// served under /v1/unify/..., every response carries it in
	// VersionHeader, and /v1/unify/healthz advertises it.
	APIVersion = "v1"
	// VersionHeader carries the API version on every request and response.
	VersionHeader = "X-Unify-API-Version"
	// GenerationHeader carries the scalar commit epoch a served view is at
	// least as new as — the watch stream's resume cursor.
	GenerationHeader = "X-Unify-Generation"
)

// unifyRoot is the one mount point of every /unify route.
const unifyRoot = "/" + APIVersion + "/unify"

// pollWindow bounds every long-poll — a watch and a job wait: the server
// answers at the latest after this long, whatever ?timeout= asks for, and
// waits this long when it asks for nothing.
const pollWindow = 30 * time.Second

// pollTimeout reads a long-poll's ?timeout=, clamped to pollWindow. A value
// that does not parse or is negative is an error for a 400.
func pollTimeout(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return pollWindow, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("api: bad timeout: %v", err)
	}
	if d < 0 {
		return 0, fmt.Errorf("api: bad timeout: %s is negative", raw)
	}
	return min(d, pollWindow), nil
}

// VersionedViewer is any layer that names the version of the view it serves.
// core.ResourceOrchestrator, core.LocalOrchestrator and Replica implement it;
// layers that don't degrade to unconditional views and get no watch stream.
type VersionedViewer interface {
	// VersionedView returns the sealed view plus the version naming it. The
	// view may be newer than the version's generation (a commit can land
	// between reading the generation and cutting the view) — never older.
	VersionedView(ctx context.Context) (*nffg.NFFG, core.ViewVersion, error)
	// ViewVersion returns the current version without computing the view.
	ViewVersion() core.ViewVersion
}

// VersionWaiter is any layer that can block until its view version moves.
type VersionWaiter interface {
	// WaitVersion returns once the layer's generation exceeds from, or ctx
	// ends (returning ctx's error).
	WaitVersion(ctx context.Context, from uint64) (core.ViewVersion, error)
}

// WatchEvent is one message of the watch stream.
type WatchEvent struct {
	Layer string `json:"layer"`
	// Generation is the scalar epoch to resume from (?from=Generation).
	Generation uint64 `json:"generation"`
	// ETag names the view content; consumers dedupe duplicate deliveries on
	// it (the stream guarantees no loss, not no duplicates).
	ETag string `json:"etag"`
	// Heartbeat marks a poll-window expiry (202): no change happened, View
	// is absent, Generation/ETag name the current version.
	Heartbeat bool `json:"heartbeat,omitempty"`
	// View is the full sealed view at ETag (change events only).
	View *nffg.NFFG `json:"view,omitempty"`
	// Services is the deployed-service list at the same cut, so replicas
	// serve a consistent (view, services) pair.
	Services []string `json:"services,omitempty"`
}

// StatsDoc is the payload of GET /v1/unify/stats: every counter the layer
// exposes, in one round trip, and the source /metrics renders its counter
// collectors from. Absent sections mean the layer (or server wiring) doesn't
// have them; southbound counters ride inside Pipeline.Stats for orchestrators
// and in Southbound for leaf layers that only program devices.
type StatsDoc struct {
	Layer      string `json:"layer"`
	APIVersion string `json:"api_version"`
	// Generation/ETag name the view version the stats were read around (both
	// zero-valued when the layer doesn't version its views).
	Generation uint64                `json:"generation,omitempty"`
	ETag       string                `json:"etag,omitempty"`
	Pipeline   *PipelineInfo         `json:"pipeline,omitempty"`
	Admission  *admission.Stats      `json:"admission,omitempty"`
	Southbound *core.SouthboundStats `json:"southbound,omitempty"`
	Journal    *journal.Stats        `json:"journal,omitempty"`
	Fleet      *FleetInfo            `json:"fleet,omitempty"`
	Replica    *ReplicaStats         `json:"replica,omitempty"`
}

// --- server ------------------------------------------------------------------

// etagMatches reports whether an If-None-Match header value matches the
// current tag under the strong comparison: any listed quoted (or bare) tag
// equal to etag, or "*".
func etagMatches(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" {
			return true
		}
		if strings.HasPrefix(part, "W/") {
			continue // weak tags never strong-match
		}
		if strings.Trim(part, `"`) == etag {
			return true
		}
	}
	return false
}

// setVersionHeaders stamps the version a response serves: the strong ETag
// (quoted, per HTTP) and the scalar generation.
func setVersionHeaders(w http.ResponseWriter, ver core.ViewVersion) {
	w.Header().Set("ETag", `"`+ver.ETag+`"`)
	w.Header().Set(GenerationHeader, strconv.FormatUint(ver.Generation, 10))
}

func (s *Server) handleView(w http.ResponseWriter, r *http.Request) {
	vv, ok := s.layer.(VersionedViewer)
	if !ok {
		// Layer without versioned views: unconditional full body, no ETag.
		v, err := s.layer.View(r.Context())
		if err != nil {
			s.httpError(w, err)
			return
		}
		s.writeBody(w, http.StatusOK, v.EncodeJSON)
		return
	}
	v, ver, err := vv.VersionedView(r.Context())
	if err != nil {
		s.httpError(w, err)
		return
	}
	setVersionHeaders(w, ver)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, ver.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.writeBody(w, http.StatusOK, v.EncodeJSON)
}

// handleWatch long-polls the layer's view version. ?from= is the last
// generation the caller saw (0 for "anything committed"); ?timeout= bounds
// the poll window (default 30s). A change answers 200 with the full sealed
// view; an expired window answers 202 with a heartbeat naming the current
// version so the caller can fast-forward its cursor without refetching.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	vv, okView := s.layer.(VersionedViewer)
	vw, okWait := s.layer.(VersionWaiter)
	if !okView || !okWait {
		s.writeError(w, http.StatusNotImplemented, CodeNotImplemented, "api: layer does not version its views", "")
		return
	}
	var from uint64
	if raw := r.URL.Query().Get("from"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, "api: bad from: "+err.Error(), "")
			return
		}
		from = v
	}
	window, err := pollTimeout(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), "")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), window)
	defer cancel()
	if _, err := vw.WaitVersion(ctx, from); err != nil {
		// Window expired (or the client went away): heartbeat with the
		// current version so the caller can resync its cursor and re-poll.
		ver := vv.ViewVersion()
		setVersionHeaders(w, ver)
		s.writeJSON(w, http.StatusAccepted, WatchEvent{
			Layer: s.layer.ID(), Generation: ver.Generation, ETag: ver.ETag, Heartbeat: true,
		})
		return
	}
	// The version moved past from. Serve the CURRENT view — possibly newer
	// than the version that woke us, which only means the caller skips ahead.
	view, ver, err := vv.VersionedView(r.Context())
	if err != nil {
		s.httpError(w, err)
		return
	}
	setVersionHeaders(w, ver)
	s.writeJSON(w, http.StatusOK, WatchEvent{
		Layer:      s.layer.ID(),
		Generation: ver.Generation,
		ETag:       ver.ETag,
		View:       view,
		Services:   s.layer.Services(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.statsDoc())
}

// statsDoc assembles the consolidated stats document. It is the only code
// that asks the layer for pipeline, shard or southbound counters; /stats,
// /metrics and /healthz all read them from here.
func (s *Server) statsDoc() StatsDoc {
	doc := StatsDoc{Layer: s.layer.ID(), APIVersion: APIVersion}
	if vv, ok := s.layer.(VersionedViewer); ok {
		ver := vv.ViewVersion()
		doc.Generation, doc.ETag = ver.Generation, ver.ETag
	}
	if p, ok := s.layer.(pipelineStatsProvider); ok {
		info := PipelineInfo{Layer: s.layer.ID(), Stats: p.PipelineStats()}
		if sp, ok := s.layer.(shardStatsProvider); ok {
			info.Shards = sp.ShardStats()
		}
		doc.Pipeline = &info
	} else if sb, ok := s.layer.(core.SouthboundStatsProvider); ok {
		st := sb.SouthboundStats()
		doc.Southbound = &st
	}
	if s.adm != nil {
		st := s.adm.Stats()
		doc.Admission = &st
	}
	if s.journal != nil {
		st := s.journal.Stats()
		doc.Journal = &st
	}
	if s.fleet != nil {
		doc.Fleet = &FleetInfo{Layer: s.layer.ID(), Domains: s.fleet.Status(), Stats: s.fleet.Stats()}
	}
	if s.replica != nil {
		rs := s.replica.Stats()
		doc.Replica = &rs
	}
	return doc
}

// --- client ------------------------------------------------------------------

// clientViewEntry is the client's one cached remote view: the sealed graph
// plus the server version that named it.
type clientViewEntry struct {
	ver  core.ViewVersion
	view *nffg.NFFG
}

// ClientViewStats counts the client view cache's conditional round trips.
type ClientViewStats struct {
	// Hits counts Views answered 304 (served from the cached sealed graph).
	Hits uint64 `json:"hits"`
	// Misses counts Views that transferred a full body.
	Misses uint64 `json:"misses"`
}

// ViewCacheStats returns the client's conditional-view counters.
func (c *Client) ViewCacheStats() ClientViewStats {
	return ClientViewStats{Hits: c.viewHits.Load(), Misses: c.viewMisses.Load()}
}

// View implements unify.Layer. Against a versioning server the client holds
// one sealed cached graph keyed by the server's strong ETag and revalidates
// with If-None-Match: a 304 answer returns the SHARED cached snapshot with no
// body transferred (Copy before mutating, as with any layer's view). Against
// a layer that does not version its views every call is a full fetch.
func (c *Client) View(ctx context.Context) (*nffg.NFFG, error) {
	v, _, err := c.ViewVersioned(ctx)
	return v, err
}

// ViewVersioned is View plus the server-assigned version (zero-valued against
// a server that doesn't version its views).
func (c *Client) ViewVersioned(ctx context.Context) (*nffg.NFFG, core.ViewVersion, error) {
	req, err := c.newRequest(ctx, http.MethodGet, unifyRoot+"/view", nil)
	if err != nil {
		return nil, core.ViewVersion{}, err
	}
	cached := c.viewCache.Load()
	if cached != nil {
		req.Header.Set("If-None-Match", `"`+cached.ver.ETag+`"`)
	}
	resp, err := c.unary.Do(req)
	if err != nil {
		return nil, core.ViewVersion{}, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		// cached cannot be nil here: we only send If-None-Match when it is
		// set, and a compliant server only answers 304 to a matching tag.
		if cached == nil {
			return nil, core.ViewVersion{}, errUnexpected304
		}
		c.viewHits.Add(1)
		return cached.view, cached.ver, nil
	case http.StatusOK:
		c.viewMisses.Add(1)
		v, err := readGraph(resp.Body, resp.ContentLength)
		if err != nil {
			return nil, core.ViewVersion{}, err
		}
		v.Seal()
		ver := responseVersion(resp)
		if ver.ETag != "" {
			c.viewCache.Store(&clientViewEntry{ver: ver, view: v})
		}
		return v, ver, nil
	default:
		return nil, core.ViewVersion{}, remoteError(resp)
	}
}

// responseVersion extracts the view version a response advertises.
func responseVersion(resp *http.Response) core.ViewVersion {
	ver := core.ViewVersion{ETag: strings.Trim(resp.Header.Get("ETag"), `"`)}
	if raw := resp.Header.Get(GenerationHeader); raw != "" {
		if g, err := strconv.ParseUint(raw, 10, 64); err == nil {
			ver.Generation = g
		}
	}
	return ver
}

var errUnexpected304 = &protocolError{"api: 304 without a cached view"}

// protocolError marks a server answer that violates the API contract.
type protocolError struct{ msg string }

func (e *protocolError) Error() string { return e.msg }

// WatchOnce performs one watch long-poll: it blocks until the remote view
// generation exceeds from (returning the event with its full sealed view and
// changed=true) or the server's poll window closes (a heartbeat event,
// changed=false). Callers loop, feeding each event's Generation back as from;
// ETag-equal events are duplicates to skip. The call is governed only by ctx
// (plus the server-side window) — it rides the long transport.
func (c *Client) WatchOnce(ctx context.Context, from uint64, window time.Duration) (WatchEvent, bool, error) {
	path := unifyRoot + "/watch?from=" + strconv.FormatUint(from, 10)
	if window > 0 {
		path += "&timeout=" + window.String()
	}
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return WatchEvent{}, false, err
	}
	resp, err := c.long.Do(req)
	if err != nil {
		return WatchEvent{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		var ev WatchEvent
		if err := decodeJSONBody(resp, &ev); err != nil {
			return WatchEvent{}, false, err
		}
		if ev.View != nil {
			ev.View.Seal()
		}
		return ev, resp.StatusCode == http.StatusOK && !ev.Heartbeat, nil
	default:
		return WatchEvent{}, false, remoteError(resp)
	}
}

// Stats fetches the consolidated stats document in one round trip.
func (c *Client) Stats(ctx context.Context) (StatsDoc, error) {
	var doc StatsDoc
	err := c.getJSON(ctx, unifyRoot+"/stats", &doc)
	return doc, err
}
