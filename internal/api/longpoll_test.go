package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/core"
)

// TestPollTimeoutClamped: a long-poll's ?timeout= defaults to pollWindow,
// is cut to it when longer, and is an error when negative or unparsable.
func TestPollTimeoutClamped(t *testing.T) {
	for _, c := range []struct {
		raw  string
		want time.Duration
		ok   bool
	}{
		{"", pollWindow, true},
		{"0s", 0, true},
		{"5s", 5 * time.Second, true},
		{"30s", pollWindow, true},
		{"1000h", pollWindow, true},
		{"-1s", 0, false},
		{"soon", 0, false},
	} {
		target := "/x"
		if c.raw != "" {
			target += "?timeout=" + c.raw
		}
		got, err := pollTimeout(httptest.NewRequest(http.MethodGet, target, nil))
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("timeout=%q: %v, %v; want %v, ok=%v", c.raw, got, err, c.want, c.ok)
		}
	}
}

// getStatus GETs url and returns the status and, for an error answer, the
// envelope's code.
func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env ErrorEnvelope
	if resp.StatusCode >= 400 {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, env.Error.Code
}

// deadlineWaiter answers every WaitVersion at once with its context's error,
// after recording the deadline the handler gave it.
type deadlineWaiter struct {
	*core.LocalOrchestrator
	deadline chan time.Time
}

func (w deadlineWaiter) WaitVersion(ctx context.Context, _ uint64) (core.ViewVersion, error) {
	d, _ := ctx.Deadline()
	w.deadline <- d
	return core.ViewVersion{}, context.DeadlineExceeded
}

// TestWatchTimeoutBounded: GET /watch holds its handler for at most
// pollWindow whatever ?timeout= asks, and answers 400 to a negative one.
func TestWatchTimeoutBounded(t *testing.T) {
	layer := deadlineWaiter{leaf(t, "remote"), make(chan time.Time, 1)}
	srv := NewServer(layer, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	base := "http://" + addr + unifyRoot + "/watch?from=0&timeout="

	start := time.Now()
	if status, _ := getStatus(t, base+"1000h"); status != http.StatusAccepted {
		t.Fatalf("watch with timeout=1000h: status %d, want a 202 heartbeat", status)
	}
	if d := (<-layer.deadline).Sub(start); d > pollWindow+time.Second {
		t.Fatalf("watch with timeout=1000h waits up to %v, want at most %v", d, pollWindow)
	}
	if status, code := getStatus(t, base+"-1s"); status != http.StatusBadRequest || code != CodeBadRequest {
		t.Fatalf("watch with timeout=-1s: %d %q, want 400 %s", status, code, CodeBadRequest)
	}
}

// TestJobWaitTimeoutBounded: GET /jobs/{id}/wait takes a ?timeout= beyond
// pollWindow (cut to it) and answers 400 to a negative one.
func TestJobWaitTimeoutBounded(t *testing.T) {
	lo := leaf(t, "remote")
	q := admission.New(lo, admission.Options{})
	t.Cleanup(q.Close)
	srv := NewServer(lo, nil).WithAdmission(q)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := Dial("remote", "http://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	job, err := cli.SubmitAsync(ctx, sg(t, "svc-wait"))
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr + unifyRoot + "/jobs/" + job.ID + "/wait?timeout="

	if status, code := getStatus(t, base+"-1s"); status != http.StatusBadRequest || code != CodeBadRequest {
		t.Fatalf("job wait with timeout=-1s: %d %q, want 400 %s", status, code, CodeBadRequest)
	}
	if status, _ := getStatus(t, base+"1000h"); status != http.StatusOK {
		t.Fatalf("job wait with timeout=1000h: status %d, want 200 once the job is terminal", status)
	}
}
