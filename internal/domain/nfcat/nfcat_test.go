package nfcat

import (
	"slices"
	"strings"
	"testing"

	"github.com/unify-repro/escape/internal/dataplane"
)

func TestDefaultCatalogue(t *testing.T) {
	c := New()
	for _, typ := range []string{"firewall", "dpi", "nat", "compress", "encrypt", "cache", "monitor", "lb"} {
		if !slices.Contains(c.Types(), typ) {
			t.Errorf("catalogue missing %s", typ)
		}
	}
	if slices.Contains(c.Types(), "flux-capacitor") {
		t.Error("unknown type should not exist")
	}
	if len(c.Types()) < 8 {
		t.Errorf("types: %v", c.Types())
	}
}

func TestInstantiateMarksTrace(t *testing.T) {
	c := New()
	proc, lat, err := c.Instantiate("nat", "vm", "nat7")
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatalf("latency: %g", lat)
	}
	p := dataplane.NewPacket("a", "b", 1, 100)
	ems := proc.Process(p, 1)
	if len(ems) != 1 {
		t.Fatalf("emissions: %+v", ems)
	}
	if ems[0].DelayMs < lat {
		t.Fatalf("latency not injected: %g < %g", ems[0].DelayMs, lat)
	}
	trace := strings.Join(p.Trace, ",")
	if !strings.Contains(trace, "vm:nat:nat7") {
		t.Fatalf("mark missing: %s", trace)
	}
}

func TestInstantiateUnknown(t *testing.T) {
	if _, _, err := New().Instantiate("bogus", "vm", "x"); err == nil {
		t.Fatal("unknown type must fail")
	}
}

func TestFirewallBlocksPayload(t *testing.T) {
	c := New()
	proc, _, _ := c.Instantiate("firewall", "docker", "fw")
	bad := dataplane.NewPacket("a", "b", 1, 100)
	bad.Payload = []byte("blocked stuff")
	if ems := proc.Process(bad, 1); len(ems) != 0 {
		t.Fatal("blocked payload should drop")
	}
	ok := dataplane.NewPacket("a", "b", 2, 100)
	ok.Payload = []byte("fine")
	if ems := proc.Process(ok, 1); len(ems) != 1 {
		t.Fatal("clean payload should pass")
	}
}

func TestTransformersChangeSize(t *testing.T) {
	c := New()
	comp, _, _ := c.Instantiate("compress", "vm", "c1")
	p := dataplane.NewPacket("a", "b", 1, 1000)
	comp.Process(p, 1)
	if p.Size >= 1000 {
		t.Fatalf("compress: %d", p.Size)
	}
	enc, _, _ := c.Instantiate("encrypt", "vm", "e1")
	q := dataplane.NewPacket("a", "b", 1, 1000)
	enc.Process(q, 1)
	if q.Size != 1040 {
		t.Fatalf("encrypt: %d", q.Size)
	}
}

func TestRegisterOverride(t *testing.T) {
	c := New()
	c.Register(Spec{Type: "custom", LatencyMs: 1, Build: func(mark string) dataplane.Processor {
		return dataplane.NewPipe(0, mark)
	}})
	if !slices.Contains(c.Types(), "custom") {
		t.Fatal("registered type missing")
	}
	proc, _, err := c.Instantiate("custom", "click", "x")
	if err != nil || proc == nil {
		t.Fatalf("instantiate custom: %v", err)
	}
}
