package obs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTracer(8)
	trace := tr.Trace("")
	if trace.ID() == "" {
		t.Fatal("minted trace has empty ID")
	}
	root := trace.StartSpan(nil, "job", "id", "j1")
	ctx := ContextWithSpans(context.Background(), root)
	s1, ctx1 := StartSpan(ctx, "map", "attempt", "1")
	s2, _ := StartSpan(ctx1, "commit")
	s2.End()
	s1.EndWith(errors.New("boom"))
	root.End()

	td := trace.Snapshot()
	if len(td.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(td.Spans))
	}
	byName := map[string]SpanData{}
	for _, s := range td.Spans {
		byName[s.Name] = s
	}
	if byName["job"].Parent != 0 {
		t.Errorf("job parent = %d, want 0", byName["job"].Parent)
	}
	if byName["map"].Parent != byName["job"].ID {
		t.Errorf("map parent = %d, want job id %d", byName["map"].Parent, byName["job"].ID)
	}
	if byName["commit"].Parent != byName["map"].ID {
		t.Errorf("commit parent = %d, want map id %d", byName["commit"].Parent, byName["map"].ID)
	}
	if byName["map"].Err != "boom" {
		t.Errorf("map err = %q", byName["map"].Err)
	}
	lines := TreeLines(td)
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "job") ||
		!strings.HasPrefix(lines[1], "  map") || !strings.HasPrefix(lines[2], "    commit") {
		t.Errorf("tree lines wrong: %q", lines)
	}
}

func TestNilSafety(t *testing.T) {
	var s *Span
	s.SetErr(errors.New("x"))
	s.End()
	s.EndWith(nil)
	var trace *Trace
	if trace.ID() != "" {
		t.Error("nil trace ID not empty")
	}
	if sp := trace.StartSpan(nil, "x"); sp != nil {
		t.Error("nil trace StartSpan not nil")
	}
	var tr *Tracer
	if tr.Trace("x") != nil || tr.Lookup("x") != nil {
		t.Error("nil tracer returned a trace")
	}
	ctx := context.Background()
	if sp, _ := StartSpan(ctx, "x"); sp != nil {
		t.Error("StartSpan on bare ctx returned a span")
	}
	if TraceFrom(ctx) != nil || TraceIDFrom(ctx) != "" {
		t.Error("bare ctx has a trace")
	}
	var h *Histogram
	h.Observe(time.Second) // must not panic
}

func TestSpanBufferBound(t *testing.T) {
	trace := NewTracer(0).Trace("bounded")
	for i := 0; i < DefaultSpanLimit+10; i++ {
		trace.StartSpan(nil, "s").End()
	}
	td := trace.Snapshot()
	if len(td.Spans) != DefaultSpanLimit {
		t.Errorf("spans = %d, want %d", len(td.Spans), DefaultSpanLimit)
	}
	if td.Dropped != 10 {
		t.Errorf("dropped = %d, want 10", td.Dropped)
	}
}

func TestTracerEviction(t *testing.T) {
	tr := NewTracer(2)
	a := tr.Trace("a")
	tr.Trace("b")
	tr.Trace("c")
	if tr.Lookup("a") != nil {
		t.Error("oldest trace not evicted")
	}
	if tr.Lookup("c") == nil || tr.Lookup("b") == nil {
		t.Error("recent traces missing")
	}
	if tr.Trace("a") == a {
		t.Error("evicted trace resurrected as same object")
	}
}

func TestNarrowPositional(t *testing.T) {
	tr := NewTracer(0)
	t1, t2, t3 := tr.Trace("t1"), tr.Trace("t2"), tr.Trace("t3")
	r1 := t1.StartSpan(nil, "job")
	r2 := t2.StartSpan(nil, "job")
	r3 := t3.StartSpan(nil, "job")
	ctx := ContextWithSpans(context.Background(), r1, r2, r3)

	// Group of requests 0 and 2.
	gctx := Narrow(ctx, 3, []int{0, 2})
	s, _ := StartSpan(gctx, "group")
	s.End()
	if n := len(t1.Snapshot().Spans); n != 1 {
		t.Errorf("t1 spans = %d, want 1 (group)", n)
	}
	if n := len(t2.Snapshot().Spans); n != 0 {
		t.Errorf("t2 spans = %d, want 0", n)
	}
	if n := len(t3.Snapshot().Spans); n != 1 {
		t.Errorf("t3 spans = %d, want 1 (group)", n)
	}
	if t1.Snapshot().Spans[0].Parent != 1 {
		t.Errorf("group span not parented under t1 root")
	}

	// Size mismatch: context unchanged.
	if got := Narrow(ctx, 5, []int{0}); got != ctx {
		t.Error("mismatched Narrow should return ctx unchanged")
	}
	// Narrow to positions with no traces yields a traceless context.
	empty := ContextWithSpans(context.Background(), nil, r2)
	e2 := Narrow(empty, 2, []int{0})
	if sp, _ := StartSpan(e2, "x"); sp != nil {
		t.Error("narrowed-to-nil context still produces spans")
	}
}

func TestSpanEndOnce(t *testing.T) {
	trace := NewTracer(0).Trace("once")
	s := trace.StartSpan(nil, "x")
	s.End()
	s.End()
	if n := len(trace.Snapshot().Spans); n != 1 {
		t.Errorf("double End recorded %d spans", n)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(0)
	trace := tr.Trace("race")
	root := trace.StartSpan(nil, "job")
	ctx := ContextWithSpans(context.Background(), root)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s, sctx := StartSpan(ctx, "work")
				inner, _ := StartSpan(sctx, "inner")
				inner.End()
				s.End()
				_ = trace.Snapshot()
			}
		}()
	}
	wg.Wait()
}

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Nanosecond)
	h.Observe(100 * time.Nanosecond)
	h.Observe(time.Millisecond)
	h.Observe(time.Second)
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if q := s.Quantile(0.5); q < 100*time.Nanosecond || q > 256*time.Nanosecond {
		t.Errorf("p50 = %v, want within the 100ns bucket bound", q)
	}
	if q := s.Quantile(1.0); q < time.Second || q > 2*time.Second {
		t.Errorf("p100 = %v, want within the 1s bucket bound", q)
	}
	if m := s.Mean(); m <= 0 {
		t.Errorf("mean = %v", m)
	}

	var other Histogram
	other.Observe(time.Second)
	merged := h.Snapshot()
	merged.Merge(other.Snapshot())
	if merged.Count != 5 {
		t.Errorf("merged count = %d", merged.Count)
	}

	var empty HistogramSnapshot
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot quantile/mean not zero")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c := h.Snapshot().Count; c != 8000 {
		t.Errorf("count = %d, want 8000", c)
	}
}

func TestTracerEvictionRing(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 10; i++ {
		tr.Trace(strconv.Itoa(i))
	}
	for i := 0; i < 10; i++ {
		if got, want := tr.Lookup(strconv.Itoa(i)) != nil, i >= 7; got != want {
			t.Errorf("trace %d retained = %v, want %v", i, got, want)
		}
	}
	if len(tr.ring) != 3 || len(tr.traces) != 3 {
		t.Errorf("ring %d, map %d entries; want 3 and 3", len(tr.ring), len(tr.traces))
	}
	// Adopting a retained ID neither duplicates nor reorders it: 7 is still
	// the oldest and goes first.
	tr.Trace("7")
	tr.Trace("10")
	if tr.Lookup("7") != nil || tr.Lookup("8") == nil || tr.Lookup("10") == nil {
		t.Error("eviction after a re-adopted ID does not follow arrival order")
	}
}

// A job's root span cuts its trace's buffer to its exact size, so a
// retained trace holds no spare capacity.
func TestRootSpanTrimsBuffer(t *testing.T) {
	trace := NewTracer(0).Trace("trim")
	root := trace.StartSpan(nil, "job")
	ctx := ContextWithSpans(context.Background(), root)
	for i := 0; i < 5; i++ {
		s, _ := StartSpan(ctx, "work")
		s.End()
	}
	if cap(trace.spans) == len(trace.spans)+1 {
		t.Fatal("test needs a buffer with spare capacity before the root ends")
	}
	root.End()
	if len(trace.spans) != 6 || cap(trace.spans) != 6 {
		t.Errorf("after the root span: len %d cap %d, want 6 and 6", len(trace.spans), cap(trace.spans))
	}
}

// spanLoop returns one operation of the span cost pins: open and end a span
// with one attribute on a one-trace context, under a job's root span. Every
// spansPerTrace spans it ends the root and starts a fresh trace, so the
// trace's buffer and the trace itself are part of the cost.
func spanLoop() func() {
	const spansPerTrace = 64
	tr := NewTracer(1)
	var root *Span
	var ctx context.Context
	n := spansPerTrace
	return func() {
		if n == spansPerTrace {
			root.End()
			root = tr.Trace("").StartSpan(nil, "job")
			ctx, n = ContextWithSpans(context.Background(), root), 0
		}
		n++
		s, _ := StartSpan(ctx, "deploy.child", "child", "leaf1")
		s.End()
	}
}

// Tracing is always on, so a span's cost is pinned: its handle, its
// attribute pairs and the context value its children read — at most 3
// allocations — and at most 400 B with its share of the trace's buffer.
func TestSpanCost(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned in plain builds only")
	}
	op := spanLoop()
	if n := testing.AllocsPerRun(100, op); n > 3 {
		t.Errorf("StartSpan+End: %v allocations, want at most 3", n)
	}
	r := testing.Benchmark(func(b *testing.B) {
		op := spanLoop()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
	if r.N > 0 && r.AllocedBytesPerOp() > 400 {
		t.Errorf("StartSpan+End: %d B per span, want at most 400", r.AllocedBytesPerOp())
	}
	t.Logf("StartSpan+End: %d allocs, %d B, %v per span", r.AllocsPerOp(), r.AllocedBytesPerOp(), time.Duration(r.NsPerOp()))
}

// Snapshot's JSON and TreeLines are a wire contract (GET
// /v1/unify/trace/{id}, unifyctl trace): the golden files pin them, byte for
// byte, for a span tree recorded out of order, with a start-time tie, an
// error, an orphan, a repeated attribute key and dropped spans. They were
// produced by the span storage that kept an attribute map per span.
func TestSnapshotGolden(t *testing.T) {
	defer func(base time.Time) { clockBase = base }(clockBase)
	clockBase = time.Date(2026, 10, 19, 12, 0, 0, 0, time.UTC)
	trace := &Trace{id: "0123456789abcdef", dropped: 3}
	add := func(id, parent SpanID, name string, start, dur time.Duration, err string, kv ...string) {
		trace.record(record{id: id, parent: parent, name: name, attrs: kv, start: int64(start), dur: int64(dur), err: err}, false)
	}
	add(6, 4, "deploy.child", 2100*time.Microsecond, 900*time.Microsecond, "", "child", "leaf0")
	add(2, 1, "admission.wait", 10*time.Microsecond, 1200*time.Microsecond, "")
	add(5, 4, "deploy.child", 2100*time.Microsecond, 1500*time.Microsecond, "", "child", "leaf1")
	add(4, 1, "orchestrator.commit", 1300*time.Microsecond, 2*time.Millisecond, "", "shards", "2")
	add(3, 1, "orchestrator.map", 1300*time.Microsecond, 3100*time.Microsecond, `no fit: "fw1"`, "attempt", "1")
	add(9, 8, "openflow.flush", 2500*time.Microsecond, 333*time.Nanosecond, "", "datapath", "s1", "flowmods", "4")
	add(7, 5, "local.program", 2200*time.Microsecond, 700*time.Microsecond, "", "domain", "d1", "domain", "d2")
	add(1, 0, "job", 0, 12345678*time.Nanosecond, "", "job", "job-7", "service", "svc-a", "tenant", "acme", "resumed", "true")

	td := trace.Snapshot()
	js, err := json.Marshal(td)
	if err != nil {
		t.Fatal(err)
	}
	tree := strings.Join(TreeLines(td), "\n") + "\n"
	for _, c := range []struct{ file, got string }{
		{"golden_trace.json", string(js) + "\n"},
		{"golden_trace.tree", tree},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		if c.got != string(want) {
			t.Errorf("%s differs:\ngot  %s\nwant %s", c.file, c.got, want)
		}
	}
}
