// The typed error envelope of the northbound API. Every error response
// carries one JSON document:
//
//	{"error": {"code": "busy", "message": "...", "domain": "d1"}}
//
// The code is the wire form of the unify/admission sentinel taxonomy, so
// clients map errors by NAME instead of reverse-engineering HTTP statuses or
// string-matching messages; the optional domain field names the child domain
// an infrastructure condition is about. A body that is not an envelope
// falls back to status-based mapping.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/unify"
)

// ErrReadOnly marks a write refused by a read replica. The HTTP response is a
// 503 with code "read_only" and a Location header naming the writer, so a
// client that insists on writing through a replica knows where to go.
var ErrReadOnly = errors.New("api: read-only replica")

// ErrorBody is the typed payload inside the error envelope.
type ErrorBody struct {
	// Code is the stable machine-readable error name (see errorTable);
	// clients map it onto sentinel errors.
	Code string `json:"code"`
	// Message is the human-readable error text.
	Message string `json:"message"`
	// Domain optionally names the child domain an infrastructure condition
	// (domain_unavailable, unknown_domain) refers to.
	Domain string `json:"domain,omitempty"`
}

// ErrorEnvelope is the one error document every handler writes.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// Wire error codes. The taxonomy mirrors the sentinel errors of unify and
// admission one-to-one; codes are append-only — a new condition gets a new
// code, never a reused one.
const (
	CodeBadRequest        = "bad_request"
	CodeBusy              = "busy"
	CodeCanceled          = "canceled"
	CodeDomainUnavailable = "domain_unavailable"
	CodeEmptyView         = "empty_view"
	CodeInternal          = "internal"
	CodeNotCancelable     = "not_cancelable"
	CodeNotImplemented    = "not_implemented"
	CodeQueueFull         = "queue_full"
	CodeReadOnly          = "read_only"
	CodeRejected          = "rejected"
	CodeUnknownDomain     = "unknown_domain"
	CodeUnknownJob        = "unknown_job"
	CodeUnknownService    = "unknown_service"
	CodeUnknownTrace      = "unknown_trace"
)

// errorTable is the one sentinel↔code taxonomy of the API, in
// classification order: errorStatus answers the first row whose sentinel the
// error wraps, and codeError maps a wire code back onto its row's sentinel, so
// errors.Is works identically for local and remote layers.
var errorTable = []struct {
	sentinel error
	status   int
	code     string
}{
	// Before ErrRejected: an install that failed because a target domain is
	// detached/evicting names an infrastructure condition, and the caller's
	// remedy (retry after the fleet heals) differs from a rejected request's
	// (fix the request).
	{unify.ErrDomainUnavailable, http.StatusLocked, CodeDomainUnavailable},
	{domain.ErrUnknown, http.StatusNotFound, CodeUnknownDomain},
	{unify.ErrRejected, http.StatusConflict, CodeRejected},
	{unify.ErrUnknownService, http.StatusNotFound, CodeUnknownService},
	{admission.ErrUnknownJob, http.StatusNotFound, CodeUnknownJob},
	{ErrReadOnly, http.StatusServiceUnavailable, CodeReadOnly},
	{unify.ErrBusy, http.StatusServiceUnavailable, CodeBusy},
	{admission.ErrQueueFull, http.StatusTooManyRequests, CodeQueueFull},
	{admission.ErrNotCancelable, http.StatusConflict, CodeNotCancelable},
	// A sync install whose queued job was canceled (DELETE on the job, or
	// queue shutdown) is a conflict, not a server fault.
	{admission.ErrCanceled, http.StatusConflict, CodeCanceled},
	// No domain has attached yet: the view legitimately does not exist.
	{core.ErrEmptyView, http.StatusNotFound, CodeEmptyView},
}

// errorStatus classifies an error into its (HTTP status, wire code) pair.
func errorStatus(err error) (int, string) {
	for _, row := range errorTable {
		if errors.Is(err, row.sentinel) {
			return row.status, row.code
		}
	}
	return http.StatusInternalServerError, CodeInternal
}

// codeError maps a wire code back onto its sentinel. ok=false means the code
// is unknown (newer server): the caller falls back to status mapping.
func codeError(code, msg string) (error, bool) {
	for _, row := range errorTable {
		if row.code == code {
			return fmt.Errorf("%w: %s", row.sentinel, msg), true
		}
	}
	return nil, false
}

// writeError emits the typed envelope. domain may be empty.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg, domainName string) {
	s.writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg, Domain: domainName}})
}

// httpError classifies err and writes its envelope. A replica refusing a
// write additionally points at the writer via the Location header.
func (s *Server) httpError(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	if code == CodeReadOnly && s.replica != nil {
		w.Header().Set("Location", s.replica.WriterURL())
	}
	s.writeError(w, status, code, err.Error(), "")
}

// remoteError maps an HTTP error response back onto the sentinel errors. It
// prefers the typed envelope's code; a body that is not an envelope (the
// mux's plain-text 404 for an unmounted route) or an unknown code degrades to
// status-based mapping.
func remoteError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var env ErrorEnvelope
	_ = json.Unmarshal(raw, &env)
	msg := env.Error.Message
	if msg == "" {
		msg = resp.Status
	}
	if err, ok := codeError(env.Error.Code, msg); ok {
		return err
	}
	switch resp.StatusCode {
	case http.StatusConflict:
		return fmt.Errorf("%w: %s", unify.ErrRejected, msg)
	case http.StatusLocked:
		return fmt.Errorf("%w: %s", unify.ErrDomainUnavailable, msg)
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", unify.ErrUnknownService, msg)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", unify.ErrBusy, msg)
	case http.StatusTooManyRequests:
		return fmt.Errorf("%w: %s", admission.ErrQueueFull, msg)
	default:
		return fmt.Errorf("api: remote error %d: %s", resp.StatusCode, msg)
	}
}
