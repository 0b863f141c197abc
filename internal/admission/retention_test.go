package admission

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"
	"weak"

	"github.com/unify-repro/escape/internal/obs"
)

// TestFinishedJobsReleaseEvictedTraces: a finished job keeps only its
// TraceID, so the traces its Tracer has evicted are collectable. (A queue
// retains thousands of finished jobs and a Tracer a quarter as many traces;
// were a job to pin its trace, the rest would stay in memory no API can
// reach.)
func TestFinishedJobsReleaseEvictedTraces(t *testing.T) {
	const retained, jobs = 4, 20
	tracer := obs.NewTracer(retained)
	q := New(&stubLayer{}, Options{Tracer: tracer})
	defer q.Close()

	ids := make([]string, jobs)
	traces := make([]weak.Pointer[obs.Trace], jobs)
	for i := range jobs {
		j, err := q.Submit(context.Background(), req(fmt.Sprintf("svc%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
		traces[i] = weak.Make(tracer.Lookup(j.TraceID))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	traceIDs := make([]string, jobs)
	for i, id := range ids {
		j, err := q.Wait(ctx, id)
		if err != nil || j.State != StateDeployed {
			t.Fatalf("job %s: %v %+v", id, err, j)
		}
		traceIDs[i] = j.TraceID
	}
	runtime.GC()
	runtime.GC()
	evicted := 0
	for i, tid := range traceIDs {
		if live := tracer.Lookup(tid); live != nil {
			if n := len(live.Snapshot().Spans); n != 2 {
				t.Errorf("retained trace of job %d holds %d spans, want job and admission.wait", i, n)
			}
			continue
		}
		evicted++
		if traces[i].Value() != nil {
			t.Errorf("trace of finished job %d was evicted but is still live", i)
		}
	}
	// The queue, and with it every job, must stay reachable through the
	// GCs above: were it collected, its traces would be too, pinned or not.
	runtime.KeepAlive(q)
	if evicted != jobs-retained {
		t.Errorf("%d traces evicted, want %d", evicted, jobs-retained)
	}
}
