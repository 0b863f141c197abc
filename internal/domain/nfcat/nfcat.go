// Package nfcat is the network-function catalogue: it maps functional types
// (the strings service graphs ask for) to packet-processing implementations.
// Each execution environment wraps the same behaviours differently — Click
// pipelines in the Mininet domain, VM images in OpenStack, container images
// on the Universal Node — so the catalogue parameterizes the trace mark with
// the execution environment, letting tests and the demo verify both *that*
// and *where* an NF ran.
package nfcat

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/unify-repro/escape/internal/dataplane"
)

// Spec describes one catalogue entry.
type Spec struct {
	// Type is the functional type ("firewall", "dpi", ...).
	Type string
	// LatencyMs is the per-packet processing latency of the NF.
	LatencyMs float64
	// Build creates the processor; mark is the trace tag to emit
	// ("<ee>:<instance>" by convention).
	Build func(mark string) dataplane.Processor
}

// Catalogue holds registered NF types.
type Catalogue struct {
	mu    sync.RWMutex
	specs map[string]Spec
}

// New returns a catalogue pre-loaded with the standard NF set used across
// the reproduction's examples and experiments.
func New() *Catalogue {
	c := &Catalogue{specs: map[string]Spec{}}
	c.Register(Spec{Type: "firewall", LatencyMs: 0.05, Build: func(mark string) dataplane.Processor {
		return &dataplane.Filter{Mark: mark, Allow: func(p *dataplane.Packet) bool {
			return !strings.Contains(string(p.Payload), "blocked")
		}}
	}})
	c.Register(Spec{Type: "dpi", LatencyMs: 0.25, Build: func(mark string) dataplane.Processor {
		return &dataplane.Filter{Mark: mark, Allow: func(p *dataplane.Packet) bool {
			return !strings.Contains(string(p.Payload), "attack")
		}}
	}})
	c.Register(Spec{Type: "nat", LatencyMs: 0.05, Build: func(mark string) dataplane.Processor {
		return &dataplane.Transformer{Mark: mark, Apply: func(p *dataplane.Packet) {
			// Source rewriting: visible in the trace, harmless to routing.
			p.Visit(mark + ":rewritten")
		}}
	}})
	c.Register(Spec{Type: "compress", LatencyMs: 0.2, Build: func(mark string) dataplane.Processor {
		return &dataplane.Transformer{Mark: mark, Apply: func(p *dataplane.Packet) {
			if p.Size > 64 {
				p.Size = p.Size/2 + 32
			}
		}}
	}})
	c.Register(Spec{Type: "encrypt", LatencyMs: 0.15, Build: func(mark string) dataplane.Processor {
		return &dataplane.Transformer{Mark: mark, Apply: func(p *dataplane.Packet) {
			p.Size += 40 // header + padding overhead
		}}
	}})
	c.Register(Spec{Type: "cache", LatencyMs: 0.02, Build: func(mark string) dataplane.Processor {
		return dataplane.NewPipe(0, mark)
	}})
	c.Register(Spec{Type: "monitor", LatencyMs: 0.01, Build: func(mark string) dataplane.Processor {
		return &dataplane.Tee{Mark: mark}
	}})
	c.Register(Spec{Type: "lb", LatencyMs: 0.02, Build: func(mark string) dataplane.Processor {
		return dataplane.NewPipe(0, mark)
	}})
	return c
}

// Register adds or replaces a spec.
func (c *Catalogue) Register(s Spec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.specs[s.Type] = s
}

// Types lists registered functional types, sorted.
func (c *Catalogue) Types() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.specs))
	for t := range c.specs {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Instantiate builds a processor for the functional type. ee names the
// execution environment ("click", "vm", "docker"), instance the NF ID; the
// emitted trace mark is "<ee>:<type>:<instance>".
func (c *Catalogue) Instantiate(typ, ee, instance string) (dataplane.Processor, float64, error) {
	c.mu.RLock()
	spec, ok := c.specs[typ]
	c.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("nfcat: unknown functional type %q", typ)
	}
	mark := fmt.Sprintf("%s:%s:%s", ee, typ, instance)
	return &latencyWrapper{inner: spec.Build(mark), latency: spec.LatencyMs}, spec.LatencyMs, nil
}

// latencyWrapper injects the catalogue latency into every emission.
type latencyWrapper struct {
	inner   dataplane.Processor
	latency float64
}

// Process implements dataplane.Processor.
func (w *latencyWrapper) Process(p *dataplane.Packet, inPort int) []dataplane.Emission {
	ems := w.inner.Process(p, inPort)
	for i := range ems {
		ems[i].DelayMs += w.latency
	}
	return ems
}
