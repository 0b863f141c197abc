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
//
// Tracing is on by default, so a span keeps facts, not machinery: its
// attributes are key/value pairs stored once, its start a nanosecond stamp,
// and a span on a one-trace context is itself the value its children read.
// A finished span is one flat record in its trace's buffer; only Snapshot
// builds SpanData and its attrs object.
package obs

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies a span within one trace (allocated per trace, starting
// at 1; 0 means "no parent").
type SpanID uint32

// SpanData is one recorded span, as Snapshot renders it.
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

// clockBase anchors span timestamps: a span's start is the monotonic
// nanoseconds since clockBase, and Snapshot turns it back into a wall time.
var clockBase = time.Now()

func stamp() int64 { return int64(time.Since(clockBase)) }

// record is one finished span as its trace's buffer keeps it: flat, with the
// attribute pairs shared with the span that recorded it.
type record struct {
	id, parent SpanID
	start, dur int64 // nanoseconds since clockBase; duration
	name       string
	attrs      []string // key/value pairs, read-only
	err        string
}

// Trace is a bounded, concurrency-safe span buffer for one job.
type Trace struct {
	id     string
	tracer *Tracer // keeps the size hint for the buffer; nil outside a Tracer

	mu      sync.Mutex
	next    SpanID
	spans   []record
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

// record appends r to the buffer, or counts it dropped once the buffer is
// full. The buffer's first allocation takes the size of the tracer's last
// finished trace. trim marks a job's root span: the job's work on this trace
// is done, and the trace may be retained long after it, so the buffer is cut
// to its exact size, and that size becomes the tracer's hint.
func (t *Trace) record(r record, trim bool) {
	t.mu.Lock()
	switch n := len(t.spans); {
	case n >= DefaultSpanLimit:
		t.dropped++
	case trim:
		if cap(t.spans) != n+1 {
			spans := make([]record, n, n+1)
			copy(spans, t.spans)
			t.spans = spans
		}
		t.spans = append(t.spans, r)
		if t.tracer != nil {
			t.tracer.sizeHint.Store(int32(n + 1))
		}
	case t.spans == nil && t.tracer != nil:
		t.spans = make([]record, 0, max(t.tracer.sizeHint.Load(), 1))
		fallthrough
	default:
		t.spans = append(t.spans, r)
	}
	t.mu.Unlock()
}

// Snapshot returns the recorded spans sorted by start time.
func (t *Trace) Snapshot() TraceData {
	if t == nil {
		return TraceData{}
	}
	t.mu.Lock()
	recs := slices.Clone(t.spans)
	out := TraceData{ID: t.id, Dropped: t.dropped, Spans: make([]SpanData, len(recs))}
	t.mu.Unlock()
	slices.SortFunc(recs, func(a, b record) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for i, r := range recs {
		d := SpanData{ID: r.id, Parent: r.parent, Name: r.name, Start: clockBase.Add(time.Duration(r.start)),
			Duration: time.Duration(r.dur), Err: r.err}
		if len(r.attrs) > 0 {
			d.Attrs = make(map[string]string, len(r.attrs)/2)
			for k := 0; k < len(r.attrs); k += 2 {
				d.Attrs[r.attrs[k]] = r.attrs[k+1]
			}
		}
		out.Spans[i] = d
	}
	return out
}

// StartSpan opens a span in this single trace under parent (nil parent =
// root). It is the explicit-lifetime variant used where a span outlives one
// function scope (e.g. a job's root span lives from Submit to finish).
func (t *Trace) StartSpan(parent *Span, name string, attrs ...string) *Span {
	if t == nil {
		return nil
	}
	s := newSpan(name, attrs)
	s.ref = spanRef{t: t, id: t.alloc(), parent: parent.idIn(t)}
	s.root = parent == nil
	return s
}

// Tracer is a bounded trace registry. The zero value is unusable; use
// NewTracer.
type Tracer struct {
	mu     sync.Mutex
	cap    int
	traces map[string]*Trace
	// ring holds the retained IDs in arrival order; once it holds cap of
	// them, ring[oldest] is the next to be evicted and its slot the next
	// new ID's.
	ring   []string
	oldest int
	// sizeHint is the span count of the last trace whose root span ended:
	// a new trace's buffer starts at that size.
	sizeHint atomic.Int32
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
	t := &Trace{id: id, tracer: tr}
	tr.traces[id] = t
	if len(tr.ring) < tr.cap {
		tr.ring = append(tr.ring, id)
		return t
	}
	delete(tr.traces, tr.ring[tr.oldest])
	tr.ring[tr.oldest] = id
	tr.oldest = (tr.oldest + 1) % tr.cap
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
	ref   spanRef    // the span's (first) trace
	more  *[]spanRef // a batch-level span's other traces; a pointer keeps the handle at 96 B
	name  string
	attrs []string // key/value pairs, set at start, never written after
	start int64    // nanoseconds since clockBase
	err   atomic.Pointer[error]
	ended atomic.Bool
	root  bool // a job's root span (Trace.StartSpan with no parent)
}

// newSpan opens a span with no trace yet. It keeps its own copy of the
// attribute pairs (an odd trailing key is dropped), so the caller's
// variadic slice stays on its stack.
func newSpan(name string, attrs []string) *Span {
	s := &Span{name: name, start: stamp()}
	if n := len(attrs) &^ 1; n > 0 {
		s.attrs = slices.Clone(attrs[:n])
	}
	return s
}

func (s *Span) idIn(t *Trace) SpanID {
	if s == nil {
		return 0
	}
	if s.ref.t == t {
		return s.ref.id
	}
	if s.more != nil {
		for _, r := range *s.more {
			if r.t == t {
				return r.id
			}
		}
	}
	return 0
}

// SetErr records the span's error (kept on End).
func (s *Span) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.err.Store(&err)
}

// End closes the span and records it into every referenced trace. Safe to
// call more than once (only the first records).
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.ended.Swap(true) {
		return
	}
	r := record{name: s.name, attrs: s.attrs, start: s.start, dur: stamp() - s.start}
	if err := s.err.Load(); err != nil {
		r.err = (*err).Error()
	}
	r.id, r.parent = s.ref.id, s.ref.parent
	s.ref.t.record(r, s.root)
	if s.more != nil {
		for _, ref := range *s.more {
			r.id, r.parent = ref.id, ref.parent
			ref.t.record(r, false)
		}
	}
}

// EndWith records err (if any) and ends the span.
func (s *Span) EndWith(err error) {
	s.SetErr(err)
	s.End()
}

// --- context plumbing --------------------------------------------------------

// ctxKey keys a context's trace scope. The value is one of:
//
//   - *Trace: one trace, and new spans are its roots (WithTrace);
//   - *Span: one trace, the span's first, and new spans nest under the span;
//   - *traceSet: a batch's positional scope.
type ctxKey struct{}

// position is one request's place in a trace scope: the trace new spans
// record into and the span they nest under (0: none). A nil trace is a
// placeholder that keeps the positions aligned.
type position struct {
	t      *Trace
	parent SpanID
}

// traceSet is the positional scope of a batch: pos[i] belongs to request i
// of the current batch.
type traceSet struct {
	pos []position
}

// scope reads the context's trace scope: one position (a set of one counts
// as one), or a batch's set. Both are zero on a traceless context.
func scope(ctx context.Context) (one position, set []position) {
	switch v := ctx.Value(ctxKey{}).(type) {
	case *Trace:
		return position{t: v}, nil
	case *Span:
		return position{t: v.ref.t, parent: v.ref.id}, nil
	case *traceSet:
		if v != nil && len(v.pos) == 1 {
			return v.pos[0], nil
		}
		if v != nil {
			return position{}, v.pos
		}
	}
	return position{}, nil
}

// WithTrace attaches a single trace (batch of one) with no parent span.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// ContextWithSpans attaches the traces of the given spans positionally:
// span i's trace becomes trace i of the set, with span i as the parent of
// everything recorded through the returned context. Nil spans keep their
// position as placeholders (a batch member without tracing).
func ContextWithSpans(ctx context.Context, spans ...*Span) context.Context {
	if len(spans) == 1 {
		if spans[0] == nil {
			return ctx
		}
		return context.WithValue(ctx, ctxKey{}, spans[0])
	}
	ts := &traceSet{pos: make([]position, len(spans))}
	any := false
	for i, s := range spans {
		if s == nil {
			continue
		}
		ts.pos[i] = position{t: s.ref.t, parent: s.ref.id}
		any = true
	}
	if !any {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ts)
}

// Narrow re-scopes the positional trace set to the given indices (a shard
// group's members within the batch). If the context's set does not align
// with the caller's batch (different length), the context is returned
// unchanged — better a coarse span than a misattributed one.
func Narrow(ctx context.Context, size int, idxs []int) context.Context {
	one, set := scope(ctx)
	if one.t != nil {
		set = []position{one}
	}
	if set == nil || len(set) != size {
		return ctx
	}
	sub := &traceSet{pos: make([]position, len(idxs))}
	any := false
	for i, idx := range idxs {
		if idx < 0 || idx >= len(set) || set[idx].t == nil {
			continue
		}
		sub.pos[i] = set[idx]
		any = true
	}
	if !any {
		return context.WithValue(ctx, ctxKey{}, (*traceSet)(nil))
	}
	return context.WithValue(ctx, ctxKey{}, sub)
}

// TraceFrom returns the first trace on the context, or nil.
func TraceFrom(ctx context.Context) *Trace {
	one, set := scope(ctx)
	if one.t != nil {
		return one.t
	}
	for _, p := range set {
		if p.t != nil {
			return p.t
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
// On a one-trace scope the span itself is that context's value. With no
// traces on the context it returns (nil, ctx) — all span methods tolerate
// nil.
func StartSpan(ctx context.Context, name string, attrs ...string) (*Span, context.Context) {
	one, set := scope(ctx)
	if one.t != nil {
		s := newSpan(name, attrs)
		s.ref = spanRef{t: one.t, id: one.t.alloc(), parent: one.parent}
		return s, context.WithValue(ctx, ctxKey{}, s)
	}
	if set == nil {
		return nil, ctx
	}
	var s *Span
	child := make([]position, len(set))
	for i, p := range set {
		if p.t == nil {
			continue
		}
		r := spanRef{t: p.t, id: p.t.alloc(), parent: p.parent}
		switch {
		case s == nil:
			s = newSpan(name, attrs)
			s.ref = r
		case s.more == nil:
			s.more = &[]spanRef{r}
		default:
			*s.more = append(*s.more, r)
		}
		child[i] = position{t: p.t, parent: r.id}
	}
	if s == nil {
		return nil, ctx
	}
	return s, context.WithValue(ctx, ctxKey{}, &traceSet{pos: child})
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
