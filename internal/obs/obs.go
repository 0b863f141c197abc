// Package obs is the zero-dependency tracing and metrics toolkit of the
// orchestration pipeline. A Trace is a bounded per-job span buffer; a Tracer
// is a bounded registry of traces keyed by trace ID, so northbound callers
// can retrieve a job's span tree after the fact (GET /v1/unify/trace/{id},
// unifyctl trace). Trace identity crosses process boundaries as the
// X-Unify-Trace header: a recursive escaped-over-escaped deployment mints the
// ID once at the top and every layer below adopts it, so the per-layer span
// buffers of one request share one ID and join into one logical tree.
//
// Spans ride the context the same way unify.RequestMeta does — without
// widening the unify.Layer signature. The context carries a *positional* set
// of traces: for a batch admitted as InstallBatch(ctx, reqs, ...), trace i
// belongs to reqs[i], and Narrow re-scopes the set to a shard group's member
// indices. Every helper is nil-safe: with no trace on the context, StartSpan
// returns a nil *Span whose methods are no-ops, so instrumented code paths
// cost two words when tracing is off.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// SpanID identifies a span within one trace (allocated per trace, starting
// at 1; 0 means "no parent").
type SpanID uint64

// SpanData is one recorded span.
type SpanData struct {
	ID       SpanID            `json:"id"`
	Parent   SpanID            `json:"parent,omitempty"`
	Name     string            `json:"name"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Err      string            `json:"err,omitempty"`
}

// TraceData is a queryable snapshot of one trace: spans sorted by start
// time (ties broken by span ID), plus how many spans the bounded buffer
// dropped.
type TraceData struct {
	ID      string     `json:"id"`
	Dropped uint64     `json:"dropped,omitempty"`
	Spans   []SpanData `json:"spans"`
}

// DefaultSpanLimit bounds one trace's span buffer.
const DefaultSpanLimit = 512

// DefaultTracerCap bounds how many traces a Tracer retains (oldest evicted
// first).
const DefaultTracerCap = 1024

// NewTraceID mints a 16-hex-char random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back to a
		// time-derived ID rather than panicking in an observability path.
		return fmt.Sprintf("%016x", uint64(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}

// Trace is a bounded, concurrency-safe span buffer for one job.
type Trace struct {
	id string

	mu      sync.Mutex
	next    SpanID
	spans   []SpanData
	limit   int
	dropped uint64
}

// ID returns the trace ID.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

func (t *Trace) alloc() SpanID {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id
}

func (t *Trace) record(d SpanData) {
	t.mu.Lock()
	if len(t.spans) >= t.limit {
		t.dropped++
	} else {
		t.spans = append(t.spans, d)
	}
	t.mu.Unlock()
}

// Snapshot returns the recorded spans sorted by start time.
func (t *Trace) Snapshot() TraceData {
	if t == nil {
		return TraceData{}
	}
	t.mu.Lock()
	out := TraceData{ID: t.id, Dropped: t.dropped, Spans: append([]SpanData(nil), t.spans...)}
	t.mu.Unlock()
	sort.Slice(out.Spans, func(i, j int) bool {
		if !out.Spans[i].Start.Equal(out.Spans[j].Start) {
			return out.Spans[i].Start.Before(out.Spans[j].Start)
		}
		return out.Spans[i].ID < out.Spans[j].ID
	})
	return out
}

// StartSpan opens a span in this single trace under parent (nil parent =
// root). It is the explicit-lifetime variant used where a span outlives one
// function scope (e.g. a job's root span lives from Submit to finish).
func (t *Trace) StartSpan(parent *Span, name string, attrs ...string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{name: name, start: time.Now(), attrs: attrPairs(attrs)}
	s.refs = []spanRef{{t: t, id: t.alloc(), parent: parent.idIn(t)}}
	return s
}

// Tracer is a bounded trace registry. The zero value is unusable; use
// NewTracer.
type Tracer struct {
	mu     sync.Mutex
	cap    int
	traces map[string]*Trace
	order  []string
}

// NewTracer creates a tracer retaining up to capacity traces
// (DefaultTracerCap if <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCap
	}
	return &Tracer{cap: capacity, traces: map[string]*Trace{}}
}

// Trace returns the trace with the given ID, creating it if absent (the
// adopt path for X-Unify-Trace). An empty ID mints a fresh trace.
func (tr *Tracer) Trace(id string) *Trace {
	if tr == nil {
		return nil
	}
	if id == "" {
		id = NewTraceID()
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if t, ok := tr.traces[id]; ok {
		return t
	}
	t := &Trace{id: id, limit: DefaultSpanLimit}
	tr.traces[id] = t
	tr.order = append(tr.order, id)
	for len(tr.order) > tr.cap {
		delete(tr.traces, tr.order[0])
		tr.order = tr.order[1:]
	}
	return t
}

// Lookup returns the trace with the given ID, or nil.
func (tr *Tracer) Lookup(id string) *Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.traces[id]
}

// --- spans -------------------------------------------------------------------

type spanRef struct {
	t      *Trace
	id     SpanID
	parent SpanID
}

// Span is a live span handle. It may record into several traces at once (a
// batch-level stage like a group commit belongs to every member's trace).
// All methods are nil-safe.
type Span struct {
	name  string
	start time.Time
	refs  []spanRef
	attrs map[string]string // set at start, never written after

	mu    sync.Mutex
	err   error
	ended bool
}

func (s *Span) idIn(t *Trace) SpanID {
	if s == nil {
		return 0
	}
	for _, r := range s.refs {
		if r.t == t {
			return r.id
		}
	}
	return 0
}

// SetErr records the span's error (kept on End).
func (s *Span) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// End closes the span and records it into every referenced trace. Safe to
// call more than once (only the first records).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	d := SpanData{Name: s.name, Start: s.start, Duration: time.Since(s.start)}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			d.Attrs[k] = v
		}
	}
	if s.err != nil {
		d.Err = s.err.Error()
	}
	refs := s.refs
	s.mu.Unlock()
	for _, r := range refs {
		d.ID, d.Parent = r.id, r.parent
		r.t.record(d)
	}
}

// EndWith records err (if any) and ends the span.
func (s *Span) EndWith(err error) {
	s.SetErr(err)
	s.End()
}

func attrPairs(kv []string) map[string]string {
	if len(kv) < 2 {
		return nil
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// --- context plumbing --------------------------------------------------------

type ctxKey struct{}

// traceSet is the positional trace set riding the context: traces[i] belongs
// to request i of the current batch scope (nil entries are placeholders so
// positions stay aligned), parents[i] is the span new child spans of trace i
// nest under.
type traceSet struct {
	traces  []*Trace
	parents []SpanID
}

// WithTrace attaches a single trace (batch of one) with no parent span.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &traceSet{traces: []*Trace{t}, parents: []SpanID{0}})
}

// ContextWithSpans attaches the traces of the given spans positionally:
// span i's trace becomes trace i of the set, with span i as the parent of
// everything recorded through the returned context. Nil spans keep their
// position as placeholders (a batch member without tracing).
func ContextWithSpans(ctx context.Context, spans ...*Span) context.Context {
	ts := &traceSet{traces: make([]*Trace, len(spans)), parents: make([]SpanID, len(spans))}
	any := false
	for i, s := range spans {
		if s == nil || len(s.refs) == 0 {
			continue
		}
		ts.traces[i] = s.refs[0].t
		ts.parents[i] = s.refs[0].id
		any = true
	}
	if !any {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ts)
}

func setFrom(ctx context.Context) *traceSet {
	ts, _ := ctx.Value(ctxKey{}).(*traceSet)
	return ts
}

// Narrow re-scopes the positional trace set to the given indices (a shard
// group's members within the batch). If the context's set does not align
// with the caller's batch (different length), the context is returned
// unchanged — better a coarse span than a misattributed one.
func Narrow(ctx context.Context, size int, idxs []int) context.Context {
	ts := setFrom(ctx)
	if ts == nil || len(ts.traces) != size {
		return ctx
	}
	sub := &traceSet{traces: make([]*Trace, len(idxs)), parents: make([]SpanID, len(idxs))}
	any := false
	for i, idx := range idxs {
		if idx < 0 || idx >= len(ts.traces) || ts.traces[idx] == nil {
			continue
		}
		sub.traces[i] = ts.traces[idx]
		sub.parents[i] = ts.parents[idx]
		any = true
	}
	if !any {
		return context.WithValue(ctx, ctxKey{}, (*traceSet)(nil))
	}
	return context.WithValue(ctx, ctxKey{}, sub)
}

// TraceFrom returns the first trace on the context, or nil.
func TraceFrom(ctx context.Context) *Trace {
	ts := setFrom(ctx)
	if ts == nil {
		return nil
	}
	for _, t := range ts.traces {
		if t != nil {
			return t
		}
	}
	return nil
}

// TraceIDFrom returns the first trace's ID, or "".
func TraceIDFrom(ctx context.Context) string {
	return TraceFrom(ctx).ID()
}

// StartSpan opens a span named name in every trace on the context and
// returns the span plus a context under which further spans nest inside it.
// With no traces on the context it returns (nil, ctx) — all span methods
// tolerate nil.
func StartSpan(ctx context.Context, name string, attrs ...string) (*Span, context.Context) {
	ts := setFrom(ctx)
	if ts == nil {
		return nil, ctx
	}
	s := &Span{name: name, start: time.Now(), attrs: attrPairs(attrs)}
	child := &traceSet{traces: ts.traces, parents: make([]SpanID, len(ts.traces))}
	for i, t := range ts.traces {
		if t == nil {
			continue
		}
		id := t.alloc()
		s.refs = append(s.refs, spanRef{t: t, id: id, parent: ts.parents[i]})
		child.parents[i] = id
	}
	if len(s.refs) == 0 {
		return nil, ctx
	}
	return s, context.WithValue(ctx, ctxKey{}, child)
}

// --- tree rendering ----------------------------------------------------------

// TreeLines renders the span tree as indented text lines:
//
//	job 12.3ms id=j1
//	  admission.wait 1.2ms
//	  orchestrator.map 3.1ms attempt=1
//
// Orphaned spans (parent evicted by the bounded buffer) surface as roots.
func TreeLines(td TraceData) []string {
	children := map[SpanID][]SpanData{}
	ids := map[SpanID]bool{}
	for _, s := range td.Spans {
		ids[s.ID] = true
	}
	for _, s := range td.Spans {
		p := s.Parent
		if p != 0 && !ids[p] {
			p = 0
		}
		children[p] = append(children[p], s)
	}
	var out []string
	var walk func(parent SpanID, depth int)
	walk = func(parent SpanID, depth int) {
		for _, s := range children[parent] {
			var b strings.Builder
			for i := 0; i < depth; i++ {
				b.WriteString("  ")
			}
			b.WriteString(s.Name)
			fmt.Fprintf(&b, " %s", s.Duration.Round(time.Microsecond))
			keys := make([]string, 0, len(s.Attrs))
			for k := range s.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%s", k, s.Attrs[k])
			}
			if s.Err != "" {
				fmt.Fprintf(&b, " err=%q", s.Err)
			}
			out = append(out, b.String())
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)
	return out
}
