package api

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// slowViewLayer wedges View until released, so a request can be held
// in-flight across a Shutdown call.
type slowViewLayer struct {
	unify.Layer
	enter   chan struct{}
	release chan struct{}
}

func (l *slowViewLayer) View(ctx context.Context) (*nffg.NFFG, error) {
	l.enter <- struct{}{}
	<-l.release
	return l.Layer.View(ctx)
}

// TestShutdownDrainsInFlight: Shutdown must stop the listener immediately
// but let a request already inside a handler run to completion.
func TestShutdownDrainsInFlight(t *testing.T) {
	slow := &slowViewLayer{Layer: leaf(t, "slow"), enter: make(chan struct{}), release: make(chan struct{})}
	srv := NewServer(slow, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		status int
		body   string
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr + unifyRoot + "/view")
		if err != nil {
			inflight <- result{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		inflight <- result{status: resp.StatusCode, body: string(body)}
	}()
	<-slow.enter // the request is inside the handler

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// The listener must refuse new connections while the drain is pending.
	refused := false
	for i := 0; i < 200; i++ {
		if _, err := http.Get("http://" + addr + "/healthz"); err != nil {
			refused = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !refused {
		t.Fatal("listener still accepting connections after Shutdown started")
	}

	close(slow.release) // let the in-flight request finish
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request aborted by graceful shutdown: %v", r.err)
	}
	if r.status != http.StatusOK || !strings.Contains(r.body, "slow") {
		t.Fatalf("in-flight request got %d %q", r.status, r.body)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("drain completed but Shutdown returned %v", err)
	}
}

// TestShutdownForceClosesAfterDeadline: when the drain window expires with a
// request still wedged, Shutdown reports the deadline error and force-closes
// the connection rather than hanging forever.
func TestShutdownForceClosesAfterDeadline(t *testing.T) {
	slow := &slowViewLayer{Layer: leaf(t, "slow"), enter: make(chan struct{}), release: make(chan struct{})}
	srv := NewServer(slow, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + addr + unifyRoot + "/view")
		if err == nil {
			resp.Body.Close()
		}
		reqDone <- err
	}()
	<-slow.enter

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	close(slow.release) // unwedge the handler goroutine
	<-reqDone           // the client sees either an abort or a late response; it must not hang
}

// failingWriter is an http.ResponseWriter whose body writes fail, standing in
// for a client that vanished mid-response.
type failingWriter struct{ header http.Header }

func (f *failingWriter) Header() http.Header {
	if f.header == nil {
		f.header = http.Header{}
	}
	return f.header
}
func (f *failingWriter) WriteHeader(int) {}
func (f *failingWriter) Write([]byte) (int, error) {
	return 0, fmt.Errorf("client went away")
}

// TestEncodeFailuresCounted: a response encode error must not vanish — it is
// logged, counted on the server, and exported on /metrics.
func TestEncodeFailuresCounted(t *testing.T) {
	lo := leaf(t, "enc")
	srv := NewServer(lo, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	srv.writeJSON(&failingWriter{}, http.StatusOK, map[string]string{"k": "v"})
	srv.writeJSON(&failingWriter{}, http.StatusOK, map[string]string{"k": "v"})
	if got := srv.encodeFailures.Load(); got != 2 {
		t.Fatalf("encodeFailures = %d, want 2", got)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "unify_server_encode_failures 2"; !strings.Contains(string(body), want) {
		t.Fatalf("/metrics missing %q:\n%.2000s", want, body)
	}
}
