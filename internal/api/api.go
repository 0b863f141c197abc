// Package api carries the Unify interface over HTTP: a Server exposes any
// unify.Layer at REST endpoints, and Client implements unify.Layer (and
// domain.Domain) against such a server. Because the client satisfies the
// same interface it consumes, orchestration layers compose across process
// and machine boundaries — the distributed form of the paper's recursive
// control hierarchy.
//
// Endpoints (every /unify route is served only under /v1; every response
// carries X-Unify-API-Version):
//
//	GET    /v1/unify/view                 -> NFFG (virtualization view), with a
//	                                         strong ETag + X-Unify-Generation;
//	                                         If-None-Match answers 304
//	GET    /v1/unify/watch                -> WatchEvent long-poll (?from=, ?timeout=):
//	                                         generation bumps with the full sealed
//	                                         view; 202 heartbeat on window expiry
//	GET    /v1/unify/capabilities         -> ["compute","forwarding",...]
//	GET    /v1/unify/services             -> ["svc1", ...]
//	POST   /v1/unify/services             -> Receipt (body: NFFG request)
//	POST   /v1/unify/services?mode=async  -> 202 + Job (requires admission queue)
//	DELETE /v1/unify/services/{id}        -> 204
//	GET    /v1/unify/jobs                 -> [Job, ...]
//	GET    /v1/unify/jobs/{id}            -> Job
//	GET    /v1/unify/jobs/{id}/wait       -> Job (long-poll: blocks until the job
//	                                         is terminal; 202 + snapshot on
//	                                         ?timeout= expiry, at most 30 s)
//	DELETE /v1/unify/jobs/{id}            -> 204 (cancel a queued job)
//	GET    /v1/unify/stats                -> StatsDoc (pipeline + admission +
//	                                         southbound + journal + fleet + replica,
//	                                         one doc)
//	GET    /v1/unify/trace/{id}           -> obs.TraceData (span tree of a job ID or
//	                                         trace ID; requires admission + tracer)
//	GET    /v1/unify/healthz              -> Health (build info, uptime, API version,
//	                                         shard and domain counts, replica sync —
//	                                         the readiness probe)
//	GET    /metrics                       -> Prometheus text exposition: the StatsDoc
//	                                         counters plus stage histograms
//	GET    /healthz                       -> 200 "ok"
//
// Errors are one typed JSON envelope, {"error": {"code", "message",
// "domain?"}} (see envelope.go); the client maps codes back onto the unify/
// admission sentinels. The jobs endpoints exist when the server is given an
// admission queue (WithAdmission); synchronous installs then ride the same
// coalescing batches as async ones. Installs (sync and async) accept the
// X-Unify-Tenant and X-Unify-Priority headers: the submission's admission
// metadata (unify.RequestMeta), which selects the tenant sub-queue and
// priority class of the weighted-fair scheduler. An absent tenant header
// means unify.DefaultTenant; a bad priority is a 400.
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/fleet"
	"github.com/unify-repro/escape/internal/journal"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/obs"
	"github.com/unify-repro/escape/internal/unify"
)

// PipelineInfo is the pipeline section of StatsDoc: the layer's
// mapping-pipeline counters plus, for sharded orchestrators, every DoV
// shard's generation and commit counters.
type PipelineInfo struct {
	Layer  string             `json:"layer"`
	Stats  core.PipelineStats `json:"stats"`
	Shards []core.ShardStats  `json:"shards,omitempty"`
}

// pipelineStatsProvider is any layer exposing mapping-pipeline counters
// (core.ResourceOrchestrator does).
type pipelineStatsProvider interface {
	PipelineStats() core.PipelineStats
}

// shardStatsProvider is any layer exposing per-shard DoV counters.
type shardStatsProvider interface {
	ShardStats() []core.ShardStats
}

// Server exposes a layer over HTTP.
type Server struct {
	layer   unify.Layer
	caps    []domain.Capability
	adm     *admission.Queue
	http    *http.Server
	addr    string
	started time.Time
	pprof   bool

	// journal/recovery surface the durability plane when the process runs
	// with a data dir (WithJournal/WithRecovery): journal counters join
	// /v1/unify/stats and /metrics, and the recovery summary joins
	// /v1/unify/healthz.
	journal *journal.Store
	recover *journal.Info

	// fleet exposes the domain lifecycle controller (WithFleet): member
	// status and operator drains join the API, fleet counters join
	// /v1/unify/stats, /metrics and /v1/unify/healthz.
	fleet *fleet.Controller

	// replica, when the served layer is a read replica (WithReplica), joins
	// its sync state to /v1/unify/healthz and /metrics and lets write refusals
	// carry a Location hint at the writer.
	replica *Replica

	// encodeFailures counts responses whose JSON encoding failed mid-write
	// (client gone, or an unencodable payload — the latter is a bug).
	encodeFailures atomic.Uint64
}

// NewServer wraps a layer. caps may be nil for plain layers.
func NewServer(layer unify.Layer, caps []domain.Capability) *Server {
	return &Server{layer: layer, caps: caps, started: time.Now()}
}

// WithPprof mounts net/http/pprof under /debug/pprof/ on the server's mux.
// Call before Listen.
func (s *Server) WithPprof() *Server {
	s.pprof = true
	return s
}

// WithAdmission routes installs through the admission queue and enables the
// async jobs API. Call before Listen. The caller keeps ownership of the
// queue's lifecycle (Close it after the server).
func (s *Server) WithAdmission(q *admission.Queue) *Server {
	s.adm = q
	return s
}

// WithJournal exports the write-ahead journal's counters on /v1/unify/stats
// and /metrics, and its stage histograms on /metrics. Call before Listen;
// the caller keeps ownership of the store's lifecycle (Close it after the
// server and queue).
func (s *Server) WithJournal(st *journal.Store) *Server {
	s.journal = st
	return s
}

// WithRecovery attaches the crash-recovery summary of this process's startup
// to /v1/unify/healthz, so operators (and the e2e harness) can see what a
// restart replayed without scraping logs. Call before Listen.
func (s *Server) WithRecovery(info *journal.Info) *Server {
	s.recover = info
	return s
}

// WithFleet exposes the domain fleet controller: GET /v1/unify/fleet (member
// states) and POST /v1/unify/fleet/{domain}/drain (operator eviction +
// failover). Call before Listen; the caller keeps ownership of the
// controller's lifecycle (Stop it before shutting the server down).
func (s *Server) WithFleet(fc *fleet.Controller) *Server {
	s.fleet = fc
	return s
}

// WithReplica marks the served layer as a read replica: its sync state joins
// /v1/unify/healthz, /v1/unify/stats and /metrics, and refused writes carry a
// Location header naming the writer. Call before Listen; pass the same
// Replica that was given to NewServer as the layer.
func (s *Server) WithReplica(r *Replica) *Server {
	s.replica = r
	return s
}

// Listen binds to addr ("127.0.0.1:0" for ephemeral) and serves in the
// background, returning the bound address.
func (s *Server) Listen(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok")
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET "+unifyRoot+"/view", s.handleView)
	mux.HandleFunc("GET "+unifyRoot+"/watch", s.handleWatch)
	mux.HandleFunc("GET "+unifyRoot+"/capabilities", s.handleCaps)
	mux.HandleFunc("GET "+unifyRoot+"/services", s.handleList)
	mux.HandleFunc("POST "+unifyRoot+"/services", s.handleInstall)
	mux.HandleFunc("DELETE "+unifyRoot+"/services/{id}", s.handleRemove)
	mux.HandleFunc("GET "+unifyRoot+"/stats", s.handleStats)
	mux.HandleFunc("GET "+unifyRoot+"/healthz", s.handleHealthz)
	if s.adm != nil {
		mux.HandleFunc("GET "+unifyRoot+"/jobs", s.handleJobs)
		mux.HandleFunc("GET "+unifyRoot+"/jobs/{id}", s.handleJob)
		mux.HandleFunc("GET "+unifyRoot+"/jobs/{id}/wait", s.handleJobWait)
		mux.HandleFunc("DELETE "+unifyRoot+"/jobs/{id}", s.handleJobCancel)
		mux.HandleFunc("GET "+unifyRoot+"/trace/{id}", s.handleTrace)
	}
	if s.fleet != nil {
		mux.HandleFunc("GET "+unifyRoot+"/fleet", s.handleFleet)
		mux.HandleFunc("POST "+unifyRoot+"/fleet/{domain}/drain", s.handleDrain)
	}
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.addr = ln.Addr().String()
	// Every response advertises the API version, errors and 404s included.
	s.http = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(VersionHeader, APIVersion)
		mux.ServeHTTP(w, r)
	})}
	go func() { _ = s.http.Serve(ln) }()
	return s.addr, nil
}

// Shutdown stops the listener and drains in-flight requests until ctx
// expires, then force-closes whatever is left (long-polls parked in
// /v1/unify/jobs/{id}/wait can legitimately outlive any drain window). It is
// the graceful form of Close; call it BEFORE closing the admission queue so
// requests already past the listener still find a live queue.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.http == nil {
		return nil
	}
	err := s.http.Shutdown(ctx)
	if err != nil {
		// Drain window expired with connections still open: now abort them.
		_ = s.http.Close()
	}
	return err
}

// Close stops the server with a short bounded drain. In-flight requests get
// closeDrainTimeout to finish instead of being aborted mid-response (the
// historical behavior); callers that want a custom window use Shutdown.
func (s *Server) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), closeDrainTimeout)
	defer cancel()
	_ = s.Shutdown(ctx)
}

// closeDrainTimeout bounds Close's implicit drain.
const closeDrainTimeout = 5 * time.Second

func (s *Server) handleCaps(w http.ResponseWriter, _ *http.Request) {
	caps := s.caps
	if caps == nil {
		if d, ok := s.layer.(domain.Domain); ok {
			caps = d.Capabilities()
		}
	}
	out := make([]string, 0, len(caps))
	for _, c := range caps {
		out = append(out, string(c))
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.layer.Services())
}

// TenantHeader and PriorityHeader carry a submission's admission metadata
// (unify.RequestMeta) over HTTP. An absent tenant header means
// unify.DefaultTenant; a bad priority value is a 400.
const (
	TenantHeader   = "X-Unify-Tenant"
	PriorityHeader = "X-Unify-Priority"
)

// requestMeta extracts the submission metadata headers into a context the
// admission queue reads (unify.MetaFrom).
func requestMeta(r *http.Request) (context.Context, error) {
	meta := unify.RequestMeta{Tenant: r.Header.Get(TenantHeader)}
	prio, err := unify.ParsePriority(r.Header.Get(PriorityHeader))
	if err != nil {
		return nil, err
	}
	meta.Priority = prio
	return unify.WithMeta(r.Context(), meta), nil
}

// maxInstallBody bounds the request graph handleInstall reads; a larger body
// is refused with 413 instead of being decoded.
const maxInstallBody = 16 << 20

func (s *Server) handleInstall(w http.ResponseWriter, r *http.Request) {
	req, err := readGraph(http.MaxBytesReader(w, r.Body, maxInstallBody), r.ContentLength)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, status, CodeBadRequest, err.Error(), "")
		return
	}
	ctx, err := requestMeta(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "api: "+err.Error(), "")
		return
	}
	ctx = s.adoptTrace(ctx, r)
	if r.URL.Query().Get("mode") == "async" {
		if s.adm == nil {
			s.writeError(w, http.StatusNotImplemented, CodeNotImplemented, "api: no admission queue configured", "")
			return
		}
		job, err := s.adm.Submit(ctx, req)
		if err != nil {
			s.httpError(w, err)
			return
		}
		s.writeJSON(w, http.StatusAccepted, job)
		return
	}
	// Synchronous installs go through the admission queue too when present,
	// so they coalesce into the same batches (and the same per-tenant
	// scheduling).
	install := s.layer.Install
	if s.adm != nil {
		install = s.adm.Install
	}
	receipt, err := install(ctx, req)
	if err != nil {
		s.httpError(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, receipt)
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.adm.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.adm.Job(r.PathValue("id"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, job)
}

// handleJobWait long-polls a job: it blocks until the job reaches a terminal
// state, the ?timeout= window (at most pollWindow, and pollWindow when
// absent) elapses (202 + current snapshot: poll again), or the request
// context dies.
func (s *Server) handleJobWait(w http.ResponseWriter, r *http.Request) {
	window, err := pollTimeout(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), "")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), window)
	defer cancel()
	job, err := s.adm.Wait(ctx, r.PathValue("id"))
	switch {
	case errors.Is(err, admission.ErrUnknownJob):
		s.httpError(w, err)
	case err != nil:
		// Poll window expired (or the client went away): report the current
		// snapshot so the caller can re-poll.
		s.writeJSON(w, http.StatusAccepted, job)
	default:
		s.writeJSON(w, http.StatusOK, job)
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.adm.Cancel(r.PathValue("id")); err != nil {
		s.httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	if err := s.layer.Remove(r.Context(), r.PathValue("id")); err != nil {
		s.httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// writeJSON encodes a response body, logging and counting encode failures
// (surfaced as unify_server_encode_failures on /metrics) instead of dropping
// them: a truncated response from a departed client is routine, but a payload
// that cannot marshal is a server bug that silent discards would hide.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	s.writeBody(w, status, func(bw io.Writer) error { return json.NewEncoder(bw).Encode(v) })
}

// writeBody sends the JSON body encode writes, with status. A body that
// cannot be marshalled has sent nothing yet, so the client gets a 500 with
// code internal instead of an empty response under status.
func (s *Server) writeBody(w http.ResponseWriter, status int, encode func(io.Writer) error) {
	sent, err := sendJSON(w, status, encode)
	if err == nil {
		return
	}
	s.encodeFailures.Add(1)
	log.Printf("api %s: encode %d response: %v", s.layer.ID(), status, err)
	if !sent {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, "api: encode response: "+err.Error(), "")
	}
}

func writeJSONTo(w http.ResponseWriter, status int, v any) error {
	_, err := sendJSON(w, status, func(bw io.Writer) error { return json.NewEncoder(bw).Encode(v) })
	return err
}

// sendJSON runs encode against w, sending status only with the first byte
// of the body. A json.Encoder marshals the whole value before its one Write,
// so a marshal error leaves the response unsent (sent is false) and the
// caller can still answer with an error status.
func sendJSON(w http.ResponseWriter, status int, encode func(io.Writer) error) (sent bool, err error) {
	w.Header().Set("Content-Type", "application/json")
	sw := &statusWriter{w: w, status: status}
	err = encode(sw)
	return sw.sent, err
}

// statusWriter holds a response's status back until the body's first Write.
type statusWriter struct {
	w      http.ResponseWriter
	status int
	sent   bool
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if !sw.sent {
		sw.sent = true
		sw.w.WriteHeader(sw.status)
	}
	return sw.w.Write(p)
}

// Client is a unify.Layer backed by a remote server. It also satisfies
// domain.Domain so a remote layer can be attached to a local orchestrator.
//
// Two transports back the client: unary calls (view, lists, job reads) are
// bounded by a default timeout so a hung server cannot wedge the caller,
// while potentially long operations (Install, Remove, WaitJob) are governed
// only by the caller's context — an async job watch may legitimately outlive
// any fixed timeout.
type Client struct {
	id    string
	base  string
	unary *http.Client // bounded by the dial timeout
	long  *http.Client // context-governed only

	// viewCache holds the one sealed remote view the conditional View path
	// revalidates with If-None-Match (see readplane.go); viewHits/viewMisses
	// count 304 vs full-body answers.
	viewCache            atomic.Pointer[clientViewEntry]
	viewHits, viewMisses atomic.Uint64
}

// newRequest builds an API request carrying the client's version header.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set(VersionHeader, APIVersion)
	return req, nil
}

// DefaultTimeout bounds unary client calls (and the Dial health check).
const DefaultTimeout = 30 * time.Second

// Dial checks the remote's health and returns a client. id names the layer
// locally (it becomes the domain name when attached to an orchestrator).
func Dial(id, baseURL string) (*Client, error) {
	c := &Client{
		id:    id,
		base:  strings.TrimRight(baseURL, "/"),
		unary: &http.Client{Timeout: DefaultTimeout},
		long:  &http.Client{},
	}
	// The unary client's timeout bounds the health check.
	req, err := http.NewRequest(http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.unary.Do(req)
	if err != nil {
		return nil, fmt.Errorf("api: dial %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("api: %s unhealthy: %d", baseURL, resp.StatusCode)
	}
	return c, nil
}

// getJSON performs a unary GET and decodes the JSON response into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	resp, err := c.unary.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return remoteError(resp)
	}
	return decodeJSONBody(resp, out)
}

// ID implements unify.Layer.
func (c *Client) ID() string { return c.id }

// install POSTs a request, optionally in async mode. The submission metadata
// (tenant, priority) comes from the call context when set there
// (unify.WithMeta), falling back to the client's dial-time defaults; it rides
// the X-Unify-* headers, so it survives the process boundary into the remote
// admission queue.
func (c *Client) install(ctx context.Context, req *nffg.NFFG, async bool) (*http.Response, error) {
	var buf bytes.Buffer
	if err := req.EncodeJSON(&buf); err != nil {
		return nil, err
	}
	target := unifyRoot + "/services"
	if async {
		target += "?mode=async"
	}
	hreq, err := c.newRequest(ctx, http.MethodPost, target, &buf)
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	meta := unify.MetaFrom(ctx)
	if meta.Tenant != "" {
		hreq.Header.Set(TenantHeader, meta.Tenant)
	}
	if meta.Priority != "" {
		hreq.Header.Set(PriorityHeader, string(meta.Priority))
	}
	// Propagate trace identity downstream: a child layer deploying on behalf
	// of a traced request adopts the same trace ID (see obsapi.go).
	if tid := obs.TraceIDFrom(ctx); tid != "" {
		hreq.Header.Set(TraceHeader, tid)
	}
	if async {
		// Submission returns immediately; the unary bound applies.
		return c.unary.Do(hreq)
	}
	return c.long.Do(hreq)
}

// Install implements unify.Layer: the synchronous install, held open for the
// whole deployment (bounded only by ctx).
func (c *Client) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	resp, err := c.install(ctx, req, false)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return nil, remoteError(resp)
	}
	var receipt unify.Receipt
	if err := decodeJSONBody(resp, &receipt); err != nil {
		return nil, err
	}
	return &receipt, nil
}

// SubmitAsync enqueues a request on the remote admission queue and returns
// the job immediately (HTTP 202). Track it with Job/WaitJob.
func (c *Client) SubmitAsync(ctx context.Context, req *nffg.NFFG) (admission.Job, error) {
	resp, err := c.install(ctx, req, true)
	if err != nil {
		return admission.Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return admission.Job{}, remoteError(resp)
	}
	var job admission.Job
	if err := decodeJSONBody(resp, &job); err != nil {
		return admission.Job{}, err
	}
	return job, nil
}

// Job fetches one job snapshot.
func (c *Client) Job(ctx context.Context, id string) (admission.Job, error) {
	var job admission.Job
	err := c.getJSON(ctx, unifyRoot+"/jobs/"+url.PathEscape(id), &job)
	return job, err
}

// Jobs lists the remote queue's jobs in submission order.
func (c *Client) Jobs(ctx context.Context) ([]admission.Job, error) {
	var jobs []admission.Job
	err := c.getJSON(ctx, unifyRoot+"/jobs", &jobs)
	return jobs, err
}

// waitJobMaxRetries bounds consecutive transport failures of one WaitJob
// long-poll before the last error is surfaced: a flaky hop re-polls, a dead
// server does not spin forever.
const waitJobMaxRetries = 5

// WaitJob long-polls until the job reaches a terminal state or ctx is done.
// Each poll asks the server to hold the request for up to pollWindow; a 202
// means "still running", and the loop re-polls.
//
// Transport errors are classified, not treated as uniformly terminal: a
// server- or proxy-side poll timeout that drops the connection is retryable
// (the job is still running — re-poll, with backoff), while the caller's own
// context ending returns its error immediately. Only waitJobMaxRetries
// consecutive transport failures make the transport error final.
func (c *Client) WaitJob(ctx context.Context, id string) (admission.Job, error) {
	backoff := 250 * time.Millisecond
	failures := 0
	for {
		req, err := c.newRequest(ctx, http.MethodGet,
			unifyRoot+"/jobs/"+url.PathEscape(id)+"/wait?timeout="+pollWindow.String(), nil)
		if err != nil {
			return admission.Job{}, err
		}
		resp, err := c.long.Do(req)
		if err != nil {
			// The caller canceled (or timed out): that is the terminal
			// condition, reported with its context identity.
			if cerr := ctx.Err(); cerr != nil {
				return admission.Job{}, cerr
			}
			// Server-side poll timeout or a transient transport failure: the
			// job may well still be running — re-poll.
			failures++
			if failures >= waitJobMaxRetries {
				return admission.Job{}, fmt.Errorf("api: wait for job %s: %w", id, err)
			}
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return admission.Job{}, ctx.Err()
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			continue
		}
		failures = 0
		backoff = 250 * time.Millisecond
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted:
			var job admission.Job
			decodeErr := decodeJSONBody(resp, &job)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return job, decodeErr
			}
			// Poll window expired; job still in flight — re-poll.
		default:
			rerr := remoteError(resp)
			resp.Body.Close()
			return admission.Job{}, rerr
		}
	}
}

// CancelJob cancels a still-queued job.
func (c *Client) CancelJob(ctx context.Context, id string) error {
	req, err := c.newRequest(ctx, http.MethodDelete, unifyRoot+"/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return err
	}
	resp, err := c.unary.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return remoteError(resp)
	}
	return nil
}

// Remove implements unify.Layer.
func (c *Client) Remove(ctx context.Context, serviceID string) error {
	// Service IDs may contain separators ('#' in orchestrator sub-requests)
	// that URL parsing would otherwise eat.
	req, err := c.newRequest(ctx, http.MethodDelete, unifyRoot+"/services/"+url.PathEscape(serviceID), nil)
	if err != nil {
		return err
	}
	resp, err := c.long.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return remoteError(resp)
	}
	return nil
}

// ListServices lists the remote services, surfacing transport errors and
// honoring the context (unlike the interface-shaped Services).
func (c *Client) ListServices(ctx context.Context) ([]string, error) {
	var out []string
	err := c.getJSON(ctx, unifyRoot+"/services", &out)
	return out, err
}

// Services implements unify.Layer. The interface has no error channel, so
// failures collapse to an empty list; callers that care use ListServices.
func (c *Client) Services() []string {
	out, err := c.ListServices(context.Background())
	if err != nil {
		return nil
	}
	return out
}

// RemoteCapabilities fetches the remote capability advertisement, surfacing
// transport errors and honoring the context (unlike Capabilities).
func (c *Client) RemoteCapabilities(ctx context.Context) ([]domain.Capability, error) {
	var raw []string
	if err := c.getJSON(ctx, unifyRoot+"/capabilities", &raw); err != nil {
		return nil, err
	}
	out := make([]domain.Capability, 0, len(raw))
	for _, r := range raw {
		out = append(out, domain.Capability(r))
	}
	return out, nil
}

// Capabilities implements domain.Domain; failures collapse to nil — callers
// that care use RemoteCapabilities.
func (c *Client) Capabilities() []domain.Capability {
	out, err := c.RemoteCapabilities(context.Background())
	if err != nil {
		return nil
	}
	return out
}
