package netconf

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// writeFrame sends payload as one delimited frame in one write, the way
// marshalFrame sends an encoded message.
func writeFrame(w io.Writer, payload []byte) error {
	_, err := w.Write(append(bytes.Clone(payload), Delimiter...))
	return err
}

func TestFramingRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := []string{"<a/>", "<b>text with ]]> almost-delimiter</b>", "<c></c>"}
	for _, p := range payloads[:1] {
		if err := writeFrame(&buf, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := newFrameReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != payloads[0] {
		t.Fatalf("got %q", got)
	}
}

func TestFramingMultipleFrames(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := writeFrame(&buf, []byte(fmt.Sprintf("<m>%d</m>", i))); err != nil {
			t.Fatal(err)
		}
	}
	r := newFrameReader(&buf)
	for i := 0; i < 3; i++ {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("<m>%d</m>", i)
		if string(got) != want {
			t.Fatalf("frame %d: got %q want %q", i, got, want)
		}
	}
}

// Property: frames written then read return the payload (payloads must not
// contain the delimiter — guaranteed for XML bodies).
func TestFramingProperty(t *testing.T) {
	f := func(s string) bool {
		if strings.Contains(s, Delimiter) || len(s) > maxFrame/2 {
			return true
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, []byte(s)); err != nil {
			return false
		}
		got, err := newFrameReader(&buf).ReadFrame()
		if err != nil {
			return false
		}
		return string(got) == strings.TrimSpace(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// memDatastore is a test double recording edits and serving actions.
type memDatastore struct {
	mu      sync.Mutex
	config  []byte
	actions []string
	failOn  string
}

func (m *memDatastore) GetConfig() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failOn == "get" {
		return nil, errors.New("boom")
	}
	return m.config, nil
}

func (m *memDatastore) EditConfig(cfg []byte) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failOn == "edit" {
		return nil, errors.New("rejected")
	}
	m.config = append([]byte(nil), cfg...)
	return nil, nil
}

func (m *memDatastore) Call(action string, body []byte) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failOn == action {
		return nil, fmt.Errorf("action %s failed", action)
	}
	m.actions = append(m.actions, action)
	if action == "echo" {
		return body, nil
	}
	return nil, nil
}

func startServer(t *testing.T, ds Datastore) string {
	t.Helper()
	srv := NewServer(ds)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr
}

func TestHelloExchange(t *testing.T) {
	addr := startServer(t, &memDatastore{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.SessionID == 0 {
		t.Fatal("server must assign a session ID")
	}
	found := false
	for _, cap := range c.ServerCapabilities {
		if cap == "urn:unify:virtualizer:1.0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("server should announce the virtualizer capability: %v", c.ServerCapabilities)
	}
}

func TestGetEditConfig(t *testing.T) {
	ctx := context.Background()
	ds := &memDatastore{config: []byte("<virtualizer id=\"d1\"/>")}
	addr := startServer(t, ds)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got, err := c.GetConfig(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "virtualizer") {
		t.Fatalf("get-config: %q", got)
	}

	newCfg := []byte("<virtualizer id=\"d1\"><nodes/></virtualizer>")
	if err := c.EditConfig(ctx, newCfg); err != nil {
		t.Fatal(err)
	}
	got, err = c.GetConfig(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newCfg) {
		t.Fatalf("edit-config not persisted: %q", got)
	}
}

func TestActions(t *testing.T) {
	ctx := context.Background()
	ds := &memDatastore{}
	addr := startServer(t, ds)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Call(ctx, "start-nf", []byte("<nf>fw1</nf>")); err != nil {
		t.Fatal(err)
	}
	data, err := c.Call(ctx, "echo", []byte("<x>42</x>"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "<x>42</x>" {
		t.Fatalf("echo: %q", data)
	}
	ds.mu.Lock()
	acts := append([]string(nil), ds.actions...)
	ds.mu.Unlock()
	if len(acts) != 2 || acts[0] != "start-nf" {
		t.Fatalf("actions recorded: %v", acts)
	}
}

func TestRPCErrors(t *testing.T) {
	ctx := context.Background()
	ds := &memDatastore{failOn: "edit"}
	addr := startServer(t, ds)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.EditConfig(ctx, []byte("<x/>"))
	if !errors.Is(err, ErrRPC) {
		t.Fatalf("edit failure should map to ErrRPC: %v", err)
	}
	if !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("error should carry server message: %v", err)
	}
}

func TestActionError(t *testing.T) {
	ctx := context.Background()
	ds := &memDatastore{failOn: "stop-nf"}
	addr := startServer(t, ds)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(ctx, "stop-nf", nil); !errors.Is(err, ErrRPC) {
		t.Fatalf("want ErrRPC, got %v", err)
	}
}

func TestMultipleSequentialRPCs(t *testing.T) {
	ctx := context.Background()
	ds := &memDatastore{}
	addr := startServer(t, ds)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		cfg := []byte(fmt.Sprintf("<v n=\"%d\"/>", i))
		if err := c.EditConfig(ctx, cfg); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		got, err := c.GetConfig(ctx)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, cfg) {
			t.Fatalf("iteration %d: %q", i, got)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	ctx := context.Background()
	ds := &memDatastore{}
	addr := startServer(t, ds)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				if _, err := c.Call(ctx, "start-nf", nil); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ds.mu.Lock()
	n := len(ds.actions)
	ds.mu.Unlock()
	if n != 80 {
		t.Fatalf("want 80 actions, got %d", n)
	}
}

func TestClosedClient(t *testing.T) {
	ctx := context.Background()
	addr := startServer(t, &memDatastore{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	if _, err := c.GetConfig(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed client should fail fast: %v", err)
	}
}

// A frame past maxFrame fails instead of growing without bound.
func TestFrameTooLarge(t *testing.T) {
	r := io.MultiReader(bytes.NewReader(bytes.Repeat([]byte("<a>"), maxFrame/3+1)), strings.NewReader(Delimiter))
	if _, err := newFrameReader(r).ReadFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

// FuzzReadFrame: arbitrary bytes never panic and never yield a frame longer
// than maxFrame, and every payload writeFrame wrote comes back, trimmed.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte("<a/>" + Delimiter))
	f.Add([]byte("<b>text with ]]> almost-delimiter</b>" + Delimiter + "<c/>"))
	f.Add([]byte("]]]>]]>]]>"))
	f.Add([]byte("  <d>\n</d>\t"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		for {
			frame, err := fr.ReadFrame()
			if err != nil {
				break
			}
			if len(frame) > maxFrame {
				t.Fatalf("frame of %d bytes exceeds maxFrame", len(frame))
			}
		}
		// A payload round-trips when its own bytes do not complete a
		// delimiter before the one writeFrame appends.
		if bytes.Index(append(bytes.Clone(data), Delimiter...), []byte(Delimiter)) != len(data) {
			return
		}
		var buf bytes.Buffer
		for i := 0; i < 2; i++ {
			if err := writeFrame(&buf, data); err != nil {
				t.Fatal(err)
			}
		}
		fr = newFrameReader(&buf)
		for i := 0; i < 2; i++ {
			got, err := fr.ReadFrame()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if want := bytes.TrimSpace(data); !bytes.Equal(got, want) {
				t.Fatalf("frame %d: got %q, want %q", i, got, want)
			}
		}
		if _, err := fr.ReadFrame(); !errors.Is(err, io.EOF) {
			t.Fatalf("after the last frame: want io.EOF, got %v", err)
		}
	})
}

// silentServer completes the hello exchange, reads one RPC and never
// answers it: a device that stopped responding.
func silentServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if err := marshalFrame(c, &Hello{Capabilities: []string{BaseCapability}, SessionID: 1}); err != nil {
			return
		}
		fr := newFrameReader(c)
		for i := 0; i < 2; i++ { // the client's hello, then one RPC
			if _, err := fr.ReadFrame(); err != nil {
				return
			}
		}
		_, _ = io.Copy(io.Discard, c) // hold the session open, unanswered
	}()
	return ln.Addr().String()
}

// A call that gets no answer returns when its context expires, and closes
// the session, whose stream is then out of step.
func TestNetconfCallHonoursDeadline(t *testing.T) {
	addr := silentServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.EditConfigData(ctx, []byte("<nf-delta/>"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want an error wrapping context.DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("call returned after %v, its context expired after 100ms", elapsed)
	}
	if _, err := c.GetConfig(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("next call: want ErrClosed, got %v", err)
	}
}

// The session reads every frame into one reused buffer: a reply's data must
// not alias it, or the next RPC would overwrite the first reply.
func TestReplyDataOutlivesNextRPC(t *testing.T) {
	ctx := context.Background()
	c, err := Dial(startServer(t, &memDatastore{}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first, err := c.Call(ctx, "echo", []byte("<x>first</x>"))
	if err != nil {
		t.Fatal(err)
	}
	kept := bytes.Clone(first)
	if _, err := c.Call(ctx, "echo", []byte("<y>second, and longer than the first</y>")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, kept) {
		t.Fatalf("first reply changed by the second RPC: %q, was %q", first, kept)
	}
}

// The wire path's allocations, pinned without timing: the pooled encoder
// makes no 4 KB bufio.Writer per message, and a frame leaves in one write.
// The bounds are the counts measured with go1.24; xml.MarshalIndent and two
// writes took 14 allocations (5080 B) for the same frame, xml.Marshal 11.
func TestWireAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned in plain builds only")
	}
	rpc := &RPC{MessageID: "7", EditConfig: &EditConfig{Target: "running",
		Config: RawBody{Inner: []byte(`<nf-delta><starts><nf><id>fw1</id><host>s1</host><type>firewall</type><ports><port>1</port><port>2</port></ports></nf></starts></nf-delta>`)}}}
	if err := marshalFrame(io.Discard, rpc); err != nil { // warms the pool
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { _ = marshalFrame(io.Discard, rpc) }); n > 3 {
		t.Errorf("marshalFrame of an edit-config: %v allocations, want at most 3", n)
	}
	reply := &Reply{MessageID: "7", Data: &RawBody{Inner: []byte(`<nf-allocations><nf id="fw1"><port id="1" switch-port="5"></port></nf></nf-allocations>`)}}
	if n := testing.AllocsPerRun(200, func() { _, _ = MarshalXML(reply) }); n > 3 {
		t.Errorf("MarshalXML of a reply: %v allocations, want at most 3", n)
	}
}
