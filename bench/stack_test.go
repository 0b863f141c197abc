package bench

import (
	"context"
	"sync"
	"testing"

	"github.com/unify-repro/escape/internal/admission"
)

// driveStack installs and removes a few local chains from concurrent clients
// and reports what the MdO's pipeline and queue counted.
func driveStack(t *testing.T, tr *Tracer) (batches uint64, lanes map[string]admission.ShardQueueStats) {
	t.Helper()
	s, err := NewStack(StackConfig{Topo: Ring4, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr.Enable(true)
	var wg sync.WaitGroup
	for d := 0; d < Ring4.Domains; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			rng := newRand(1, "stack-test", d)
			for k := 0; k < Ring4.Pairs; k++ {
				req := chain(residentID(d, k), sapA(d, k), sapZ(d, k), 2, 10, rng)
				root := tr.Begin(spanClientInstall, req.ID)
				_, err := s.Client.Install(context.Background(), req)
				tr.End(root)
				if err != nil {
					t.Errorf("install %s: %v", req.ID, err)
					return
				}
				if err := s.Client.Remove(context.Background(), req.ID); err != nil {
					t.Errorf("remove %s: %v", req.ID, err)
				}
			}
		}(d)
	}
	wg.Wait()
	return s.MdO.PipelineStats().Batches, s.Queue.Stats().Shards
}

// TestDecoratedStackTakesTheSamePaths: the decorators must not hide the
// optional interfaces the layers type-assert, or a traced run would measure a
// different program — per-request installs on one global lane instead of
// batches on per-shard lanes.
func TestDecoratedStackTakesTheSamePaths(t *testing.T) {
	tr := NewTracer()
	for name, tracer := range map[string]*Tracer{"undecorated": nil, "decorated": tr} {
		batches, lanes := driveStack(t, tracer)
		if batches == 0 {
			t.Errorf("%s: PipelineStats.Batches = 0: the queue did not find unify.BatchInstaller", name)
		}
		if _, global := lanes[admission.GlobalShard]; global || len(lanes) != Ring4.Domains {
			t.Errorf("%s: admission lanes %v, want one per domain and no global lane: unify.Sharder is hidden", name, lanes)
		}
	}
	spans := tr.Spans()
	if err := CheckSpans(spans); err != nil {
		t.Error(err)
	}
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.Name] = true
	}
	for _, name := range []string{spanClientInstall, spanROInstall, spanChildInstall, spanLOInstall, spanSouthbound} {
		if !seen[name] {
			t.Errorf("no %s span: a decorator is not on the install path", name)
		}
	}
}

func TestCoveredTakesTheUnionOfParallelChildren(t *testing.T) {
	parent := Span{Start: 0, End: 100}
	kids := []Span{{Start: 10, End: 50}, {Start: 30, End: 70}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 70 { // [10,70] and [90,100]
		t.Errorf("covered = %d, want 70", got)
	}
}
