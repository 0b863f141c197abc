// Package decomp implements NF decomposition: replacing a network function
// in a service graph with an interconnection of component NFs during the
// mapping process (paper section 2, citing Sahhaf et al., NetSoft 2015).
//
// A decomposition rule rewrites one functional type into a small graph of
// components plus a port map that re-homes the original NF's external ports
// onto component ports. Rules may be recursive (components can themselves be
// decomposable); Enumerate bounds the recursion depth.
package decomp

import (
	"errors"
	"fmt"
	"sort"

	"github.com/unify-repro/escape/internal/nffg"
)

// Component is one piece of a decomposition.
type Component struct {
	// Suffix names the component within the expansion; the concrete NF ID
	// becomes "<nf>.<suffix>".
	Suffix         string
	FunctionalType string
	Ports          int
	Demand         nffg.Resources
}

// InternalLink is a service hop between two components of the expansion.
type InternalLink struct {
	SrcComp, SrcPort string
	DstComp, DstPort string
	Bandwidth        float64
	Delay            float64
}

// PortMap re-homes an external port of the decomposed NF to a component port:
// hops that terminated at (nf, Outer) now terminate at ("<nf>.<Comp>", Inner).
type PortMap struct {
	Outer string
	Comp  string
	Inner string
}

// Decomposition is one candidate rewrite of a functional type.
type Decomposition struct {
	Name       string
	Components []Component
	Internal   []InternalLink
	PortMaps   []PortMap
	// Cost orders candidates (lower is preferred): typically the aggregate
	// resource footprint or an operator preference.
	Cost float64
}

// Errors of the decomposition engine.
var (
	ErrNoRule    = errors.New("decomp: no decomposition rule")
	ErrBadRule   = errors.New("decomp: malformed rule")
	ErrNotFound  = errors.New("decomp: NF not found")
	ErrPortUnmap = errors.New("decomp: external port has no mapping")
)

// Rules is a catalogue of decompositions keyed by functional type.
type Rules struct {
	byType map[string][]Decomposition
}

// NewRules returns an empty catalogue.
func NewRules() *Rules { return &Rules{byType: map[string][]Decomposition{}} }

// Add registers a candidate decomposition for a functional type, keeping
// candidates sorted by cost.
func (r *Rules) Add(functional string, d Decomposition) error {
	if len(d.Components) == 0 {
		return fmt.Errorf("%w: %s/%s has no components", ErrBadRule, functional, d.Name)
	}
	seen := map[string]bool{}
	for _, c := range d.Components {
		if c.Suffix == "" || seen[c.Suffix] {
			return fmt.Errorf("%w: %s/%s duplicate or empty suffix %q", ErrBadRule, functional, d.Name, c.Suffix)
		}
		seen[c.Suffix] = true
	}
	for _, il := range d.Internal {
		if !seen[il.SrcComp] || !seen[il.DstComp] {
			return fmt.Errorf("%w: %s/%s internal link references unknown component", ErrBadRule, functional, d.Name)
		}
	}
	for _, pm := range d.PortMaps {
		if !seen[pm.Comp] {
			return fmt.Errorf("%w: %s/%s port map references unknown component %q", ErrBadRule, functional, d.Name, pm.Comp)
		}
	}
	r.byType[functional] = append(r.byType[functional], d)
	sort.SliceStable(r.byType[functional], func(i, j int) bool {
		return r.byType[functional][i].Cost < r.byType[functional][j].Cost
	})
	return nil
}

// Candidates returns the decompositions for a functional type in cost order.
func (r *Rules) Candidates(functional string) []Decomposition {
	return append([]Decomposition(nil), r.byType[functional]...)
}

// Types returns the decomposable functional types, sorted.
func (r *Rules) Types() []string {
	out := make([]string, 0, len(r.byType))
	for t := range r.byType {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Expand returns a copy of g in which NF nf is replaced by decomposition d:
// component NFs are added, internal hops wired, and every external hop
// endpoint re-homed per the port maps. The original NF is removed. The
// returned slice lists the new component NF IDs.
func Expand(g *nffg.NFFG, nf nffg.ID, d Decomposition) (*nffg.NFFG, []nffg.ID, error) {
	if _, ok := g.NFs.Lookup(nf); !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, nf)
	}
	out := g.Copy()
	// Build components.
	var created []nffg.ID
	for _, c := range d.Components {
		id := nffg.ID(fmt.Sprintf("%s.%s", nf, c.Suffix))
		n := &nffg.NF{ID: id, FunctionalType: c.FunctionalType, Demand: c.Demand, Status: nffg.StatusPlanned}
		for p := 1; p <= c.Ports; p++ {
			n.Ports = append(n.Ports, &nffg.Port{ID: fmt.Sprint(p)})
		}
		if err := out.AddNF(n); err != nil {
			return nil, nil, err
		}
		created = append(created, id)
	}
	// Re-home external hops before removing the NF (RemoveNF drops its hops).
	portMap := map[string]PortMap{}
	for _, pm := range d.PortMaps {
		portMap[pm.Outer] = pm
	}
	for _, h := range out.Hops {
		if h.SrcNode == nf {
			pm, ok := portMap[h.SrcPort]
			if !ok {
				return nil, nil, fmt.Errorf("%w: %s port %s", ErrPortUnmap, nf, h.SrcPort)
			}
			h.SrcNode = nffg.ID(fmt.Sprintf("%s.%s", nf, pm.Comp))
			h.SrcPort = pm.Inner
		}
		if h.DstNode == nf {
			pm, ok := portMap[h.DstPort]
			if !ok {
				return nil, nil, fmt.Errorf("%w: %s port %s", ErrPortUnmap, nf, h.DstPort)
			}
			h.DstNode = nffg.ID(fmt.Sprintf("%s.%s", nf, pm.Comp))
			h.DstPort = pm.Inner
		}
	}
	// Wire internal hops.
	for i, il := range d.Internal {
		h := &nffg.SGHop{
			ID:        fmt.Sprintf("%s.%s-int%d", nf, d.Name, i+1),
			SrcNode:   nffg.ID(fmt.Sprintf("%s.%s", nf, il.SrcComp)),
			SrcPort:   il.SrcPort,
			DstNode:   nffg.ID(fmt.Sprintf("%s.%s", nf, il.DstComp)),
			DstPort:   il.DstPort,
			Bandwidth: il.Bandwidth,
			Delay:     il.Delay,
		}
		if err := out.AddHop(h); err != nil {
			return nil, nil, err
		}
	}
	// Drop the original NF node (its re-homed hops no longer reference it,
	// so RemoveNF drops no hop).
	if err := out.RemoveNF(nf); err != nil {
		return nil, nil, err
	}
	return out, created, nil
}

// Variant is one fully-expanded alternative of a request graph.
type Variant struct {
	G *nffg.NFFG
	// Cost accumulates the costs of the applied decompositions (0 for the
	// unexpanded original).
	Cost float64
	// Applied lists "<nf>:<ruleName>" in application order.
	Applied []string
}

// Enumerate returns the request itself plus every variant reachable by
// applying decomposition rules to its NFs, recursively up to maxDepth
// rewrites. Variants are ordered by cost, original first among equals. The
// embedder walks this list until one variant maps successfully — that is the
// paper's "NF decomposition during the mapping process".
func Enumerate(g *nffg.NFFG, rules *Rules, maxDepth int) []Variant {
	out := []Variant{{G: g, Cost: 0}}
	if rules == nil || maxDepth <= 0 {
		return out
	}
	frontier := []Variant{{G: g}}
	for depth := 0; depth < maxDepth && len(frontier) > 0; depth++ {
		var next []Variant
		for _, v := range frontier {
			for _, id := range v.G.NFIDs() {
				nf := v.G.NFs.Get(id)
				if nf.Host != "" {
					continue // already placed; not a rewrite target
				}
				for _, d := range rules.Candidates(nf.FunctionalType) {
					exp, _, err := Expand(v.G, id, d)
					if err != nil {
						continue
					}
					nv := Variant{
						G:       exp,
						Cost:    v.Cost + d.Cost,
						Applied: append(append([]string(nil), v.Applied...), fmt.Sprintf("%s:%s", id, d.Name)),
					}
					next = append(next, nv)
				}
			}
		}
		out = append(out, next...)
		frontier = next
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}
