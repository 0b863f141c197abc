package api

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
)

// TestDecodeDoesNotAliasPooledBuffer decodes graph A from a pooled buffer,
// then a different graph B of the same length from the buffer A was read
// into: A must still re-encode to its original bytes.
func TestDecodeDoesNotAliasPooledBuffer(t *testing.T) {
	a, b := graphBody(t, sg(t, "svc-a")), graphBody(t, sg(t, "svc-b"))
	if len(a) != len(b) || bytes.Equal(a, b) {
		t.Fatalf("want two different bodies of one length, got %d and %d bytes", len(a), len(b))
	}
	// sync.Pool may drop a buffer (always under -race, at random), so try
	// until B lands in A's buffer.
	for range 20 {
		var ga *nffg.NFFG
		var bufA, bufB *byte
		if err := readBody(bytes.NewReader(a), int64(len(a)), func(p []byte) (err error) {
			bufA = &p[0]
			ga, err = nffg.DecodeJSONBytes(p)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if err := readBody(bytes.NewReader(b), int64(len(b)), func(p []byte) error {
			bufB = &p[0]
			_, err := nffg.DecodeJSONBytes(p)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got := graphBody(t, ga); !bytes.Equal(got, a) {
			t.Fatalf("graph A changed when its buffer was reused:\n%s", got)
		}
		if bufA == bufB {
			return
		}
	}
	t.Fatal("B never reused A's buffer")
}

func graphBody(t *testing.T, g *nffg.NFFG) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLongErrorEnvelopeKeepsItsType: every code of errorTable, with a 10 KB
// message, reads back as its own sentinel, message intact, not as the
// status-code guess.
func TestLongErrorEnvelopeKeepsItsType(t *testing.T) {
	s := NewServer(leaf(t, "remote"), nil)
	msg := strings.Repeat("m", 10<<10)
	for _, row := range errorTable {
		rec := httptest.NewRecorder()
		s.writeError(rec, row.status, row.code, msg, "")
		err := remoteError(rec.Result())
		if !errors.Is(err, row.sentinel) || !strings.Contains(err.Error(), msg) {
			t.Errorf("%s: read back as %.80v", row.code, err)
		}
	}
}

// TestInstallBodyTrailingOrTruncated: an install body with data after its
// JSON value, or cut short, is a 400 bad_request and installs nothing.
func TestInstallBodyTrailingOrTruncated(t *testing.T) {
	lo, cli := startPair(t)
	body := string(graphBody(t, sg(t, "svc1")))
	for name, b := range map[string]string{
		"trailing":  body + `{"id":"svc2"}`,
		"truncated": body[:len(body)/2],
	} {
		resp, err := http.Post(cli.base+unifyRoot+"/services", "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		err = decodeJSONBody(resp, &env)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeBadRequest {
			t.Errorf("%s body: %d %+v", name, resp.StatusCode, env)
		}
	}
	if got := lo.Services(); len(got) != 0 {
		t.Fatalf("a bad body installed: %v", got)
	}
}

// TestResponseTrailingDataIsAnError: a receipt or job whose body carries
// data after its JSON value makes the client fail, not return the value
// read so far.
func TestResponseTrailingDataIsAnError(t *testing.T) {
	var status int
	var body string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(status)
		_, _ = io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	cli := &Client{id: "stub", base: srv.URL, unary: srv.Client(), long: srv.Client()}
	ctx := context.Background()
	req := sg(t, "svc1")
	for _, c := range []struct {
		name   string
		status int
		body   string
		call   func() error
	}{
		{"receipt", http.StatusCreated, `{"ServiceID":"svc1"} garbage`, func() error {
			_, err := cli.Install(ctx, req)
			return err
		}},
		{"submit", http.StatusAccepted, `{"id":"j1","state":"queued"}{"id":"j2"}`, func() error {
			_, err := cli.SubmitAsync(ctx, req)
			return err
		}},
		{"wait", http.StatusOK, `{"id":"j1","state":"done"}]`, func() error {
			_, err := cli.WaitJob(ctx, "j1")
			return err
		}},
		{"job", http.StatusOK, `{"id":"j1","state":"done"} x`, func() error {
			_, err := cli.Job(ctx, "j1")
			return err
		}},
	} {
		status, body = c.status, c.body
		if err := c.call(); err == nil {
			t.Errorf("%s: a body with trailing data was accepted", c.name)
		}
	}
}
