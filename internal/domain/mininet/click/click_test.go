package click

import (
	"slices"
	"strings"
	"testing"

	"github.com/unify-repro/escape/internal/dataplane"
)

func pkt(payload string, size int) *dataplane.Packet {
	p := dataplane.NewPacket("a", "b", 1, size)
	p.Payload = []byte(payload)
	return p
}

func TestParsePipelines(t *testing.T) {
	good := []string{
		"Counter",
		"Counter -> Mark(x)",
		"Counter -> Mark(fw) -> PayloadDrop(attack) -> Delay(0.5) -> Resize(half)",
		"DstDrop(evil) -> Resize(+40)",
	}
	for _, cfg := range good {
		if _, err := Parse(cfg); err != nil {
			t.Errorf("Parse(%q): %v", cfg, err)
		}
	}
	bad := []string{
		"",
		"Unknown",
		"Mark",          // missing arg
		"Mark(",         // malformed
		"Delay(abc)",    // bad float
		"PayloadDrop()", // empty needle... actually "" arg -> error
		"Resize",        // missing op
	}
	for _, cfg := range bad {
		if _, err := Parse(cfg); err == nil {
			t.Errorf("Parse(%q) should fail", cfg)
		}
	}
}

func TestPipelineExecution(t *testing.T) {
	nf, err := NewNF("Counter -> Mark(fwmark) -> PayloadDrop(attack)")
	if err != nil {
		t.Fatal(err)
	}
	// Clean packet passes 1 -> 2 with the mark.
	p := pkt("hello", 100)
	ems := nf.Process(p, 1)
	if len(ems) != 1 || ems[0].Port != 2 {
		t.Fatalf("emissions: %+v", ems)
	}
	if !slices.Contains(p.Trace, "fwmark") {
		t.Fatalf("mark missing: %v", p.Trace)
	}
	// Reverse direction 2 -> 1.
	ems = nf.Process(pkt("ok", 50), 2)
	if len(ems) != 1 || ems[0].Port != 1 {
		t.Fatalf("reverse: %+v", ems)
	}
	// Attack payload dropped.
	bad := pkt("launch attack now", 100)
	if ems := nf.Process(bad, 1); len(ems) != 0 {
		t.Fatalf("attack should drop, got %+v", ems)
	}
	if bad.Dropped == "" {
		t.Fatal("drop reason missing")
	}
	// Counter saw all three.
	counter := nf.Pipeline[0].(*Counter)
	pk, _ := counter.Counters()
	if pk != 3 {
		t.Fatalf("counter: %d", pk)
	}
	drop := nf.Pipeline[2].(*PayloadDrop)
	if drop.Dropped() != 1 {
		t.Fatalf("dropped: %d", drop.Dropped())
	}
}

func TestDelayAccumulates(t *testing.T) {
	nf, err := NewNF("Delay(0.5) -> Delay(0.25)")
	if err != nil {
		t.Fatal(err)
	}
	ems := nf.Process(pkt("x", 10), 1)
	if len(ems) != 1 || ems[0].DelayMs != 0.75 {
		t.Fatalf("delay: %+v", ems)
	}
}

func TestResize(t *testing.T) {
	cases := []struct {
		op   string
		in   int
		want int
	}{
		{"half", 1000, 532},
		{"half", 64, 64}, // floor
		{"double", 100, 200},
		{"+40", 100, 140},
		{"-50", 100, 50},
	}
	for _, c := range cases {
		r := &Resize{Op: c.op}
		p := pkt("x", c.in)
		r.Handle(p)
		if p.Size != c.want {
			t.Errorf("Resize(%s) on %d: got %d want %d", c.op, c.in, p.Size, c.want)
		}
	}
}

func TestDstDrop(t *testing.T) {
	d := &DstDrop{Dst: "b"}
	if keep, _ := d.Handle(pkt("x", 10)); keep {
		t.Fatal("dst b should drop")
	}
	p := dataplane.NewPacket("a", "c", 1, 10)
	if keep, _ := d.Handle(p); !keep {
		t.Fatal("dst c should pass")
	}
}

func TestConfigFor(t *testing.T) {
	cfg, err := ConfigFor("firewall", "fw1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cfg, "Mark(click:firewall:fw1)") {
		t.Fatalf("config: %s", cfg)
	}
	if _, err := ConfigFor("teleport", "x"); err == nil {
		t.Fatal("unknown type should fail")
	}
	// Every default config must parse.
	for typ := range DefaultConfigs {
		cfg, err := ConfigFor(typ, "i")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewNF(cfg); err != nil {
			t.Errorf("default config for %s does not parse: %v", typ, err)
		}
	}
}
