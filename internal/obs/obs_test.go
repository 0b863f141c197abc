package obs

import (
	"context"
	"errors"
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
