package nffg

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"github.com/unify-repro/escape/internal/topo"
)

// Copy returns a deep copy of the graph. The copy is never sealed (it is the
// escape hatch for mutating a shared snapshot), and its maps and edge slices
// are pre-sized from the source — Copy sits on every cache miss of the
// orchestration read path, so its allocation count matters.
func (g *NFFG) Copy() *NFFG {
	c := NewSized(g.ID, len(g.Infras), len(g.NFs), len(g.SAPs))
	c.Name = g.Name
	c.Version = g.Version
	c.shape.Store(g.shape.Load())
	for id, i := range g.Infras {
		c.Infras[id] = copyInfra(i)
	}
	for id, n := range g.NFs {
		c.NFs[id] = copyNF(n)
	}
	for id, s := range g.SAPs {
		p := *s.Port
		c.SAPs[id] = &SAP{ID: s.ID, Name: s.Name, Port: &p}
	}
	if len(g.Links) > 0 {
		c.Links = make([]*Link, 0, len(g.Links))
	}
	for _, l := range g.Links {
		cl := *l
		c.Links = append(c.Links, &cl)
	}
	if len(g.Hops) > 0 {
		c.Hops = make([]*SGHop, 0, len(g.Hops))
	}
	for _, h := range g.Hops {
		ch := *h
		c.Hops = append(c.Hops, &ch)
	}
	if len(g.Reqs) > 0 {
		c.Reqs = make([]*Requirement, 0, len(g.Reqs))
	}
	for _, r := range g.Reqs {
		cr := *r
		cr.HopIDs = append([]string(nil), r.HopIDs...)
		c.Reqs = append(c.Reqs, &cr)
	}
	return c
}

func copyInfra(i *Infra) *Infra {
	c := *i
	c.Ports = copyPorts(i.Ports)
	c.Supported = append([]string(nil), i.Supported...)
	c.Flowrules = nil
	if len(i.Flowrules) > 0 {
		c.Flowrules = make([]*Flowrule, 0, len(i.Flowrules))
	}
	for _, f := range i.Flowrules {
		cf := *f
		c.Flowrules = append(c.Flowrules, &cf)
	}
	return &c
}

func copyNF(n *NF) *NF {
	c := *n
	c.Ports = copyPorts(n.Ports)
	return &c
}

func copyPorts(ps []*Port) []*Port {
	out := make([]*Port, 0, len(ps))
	for _, p := range ps {
		cp := *p
		out = append(out, &cp)
	}
	return out
}

// Fork returns the next generation of g: a graph that can be mutated without
// changing g. Only the node maps and edge slices are copied; every *Infra,
// *NF, *SAP, *Link, *SGHop and *Requirement is shared, and the fork's
// mutators clone an infra, NF or link the first time they write it, so a
// commit allocates for what it changes, not for the graph.
//
// A fork writes only through mutators (Add*, RemoveNF, AddFlowrule,
// RemoveFlowrulesByHop, Apply, MutLink): a field written directly on a shared
// entity changes g too, so callers that do that use Copy. Forking an unsealed
// g makes g clone on write as well, since either may write what both share.
func (g *NFFG) Fork() *NFFG {
	c := NewSized(g.ID, len(g.Infras), len(g.NFs), len(g.SAPs))
	c.Name, c.Version = g.Name, g.Version
	c.shape.Store(g.shape.Load())
	maps.Copy(c.Infras, g.Infras)
	maps.Copy(c.NFs, g.NFs)
	maps.Copy(c.SAPs, g.SAPs)
	c.Links = slices.Clone(g.Links)
	c.Hops = slices.Clone(g.Hops)
	c.Reqs = slices.Clone(g.Reqs)
	c.owned = map[any]struct{}{}
	if !g.sealed {
		g.owned = map[any]struct{}{}
	}
	return c
}

// own returns p for writing: p itself, unless g is a fork that has not
// cloned it yet; then a clone g owns from now on.
func own[T any](g *NFFG, p *T) *T {
	if _, mine := g.owned[p]; mine || p == nil || g.owned == nil {
		return p
	}
	c := *p
	g.owned[&c] = struct{}{}
	return &c
}

// mutInfra returns infra id for writing (nil if absent). A clone gets its
// own flowtable slice; the rules themselves are never written in place.
func (g *NFFG) mutInfra(id ID) *Infra {
	i := g.Infras[id]
	if c := own(g, i); c != i {
		c.Flowrules = slices.Clone(i.Flowrules)
		g.Infras[id] = c
		return c
	}
	return i
}

// mutNF returns NF id for writing (nil if absent).
func (g *NFFG) mutNF(id ID) *NF {
	n := own(g, g.NFs[id])
	if n != nil {
		g.NFs[id] = n
	}
	return n
}

// MutLink returns the static link with the given ID for writing (nil if
// absent): on a fork, the fork's own clone.
func (g *NFFG) MutLink(id string) *Link {
	g.mustMutable("MutLink")
	for k, l := range g.Links {
		if l.ID == id {
			g.Links[k] = own(g, l)
			return g.Links[k]
		}
	}
	return nil
}

// CheckQuantities rejects a negative, NaN or infinite capacity, demand,
// bandwidth or delay anywhere in g. Reservations subtract demands and admit
// by comparison, so such a value would add capacity instead of consuming it.
func (g *NFFG) CheckQuantities() (err error) {
	check := func(kind, id string, vs ...float64) {
		for _, v := range vs {
			if err == nil && (v < 0 || math.IsNaN(v) || math.IsInf(v, 0)) {
				err = fmt.Errorf("%w: %s %s has quantity %v (negative or not finite)", ErrInvalid, kind, id, v)
			}
		}
	}
	for id, i := range g.Infras {
		check("infra", string(id), i.Capacity.CPU, i.Capacity.Mem, i.Capacity.Storage, i.Capacity.Bandwidth, i.Capacity.Delay)
	}
	for id, n := range g.NFs {
		check("NF", string(id), n.Demand.CPU, n.Demand.Mem, n.Demand.Storage, n.Demand.Bandwidth, n.Demand.Delay)
	}
	for _, l := range g.Links {
		check("link", l.ID, l.Bandwidth, l.Delay)
	}
	for _, h := range g.Hops {
		check("hop", h.ID, h.Bandwidth, h.Delay)
	}
	for _, r := range g.Reqs {
		check("requirement", r.ID, r.Bandwidth, r.Delay)
	}
	return err
}

// Validate checks structural invariants: CheckQuantities; endpoints exist for
// every link, hop and flowrule; NF hosts exist and support the NF's type; no
// infra node is oversubscribed; requirements reference existing hops.
func (g *NFFG) Validate() error {
	if err := g.CheckQuantities(); err != nil {
		return err
	}
	for _, l := range g.Links {
		if err := g.checkEndpoint(l.SrcNode, l.SrcPort); err != nil {
			return fmt.Errorf("link %s: %w", l.ID, err)
		}
		if err := g.checkEndpoint(l.DstNode, l.DstPort); err != nil {
			return fmt.Errorf("link %s: %w", l.ID, err)
		}
	}
	for _, h := range g.Hops {
		if err := g.checkEndpoint(h.SrcNode, h.SrcPort); err != nil {
			return fmt.Errorf("hop %s: %w", h.ID, err)
		}
		if err := g.checkEndpoint(h.DstNode, h.DstPort); err != nil {
			return fmt.Errorf("hop %s: %w", h.ID, err)
		}
	}
	for _, id := range g.NFIDs() {
		nf := g.NFs[id]
		if nf.Host == "" {
			continue
		}
		host, ok := g.Infras[nf.Host]
		if !ok {
			// In a pure service graph (no infrastructure), Host is an
			// external placement pin resolved by a lower layer against its
			// own view; only graphs that carry infrastructure must resolve
			// hosts internally.
			if len(g.Infras) == 0 {
				continue
			}
			return fmt.Errorf("%w: NF %s host %s missing", ErrInvalid, id, nf.Host)
		}
		if len(host.Supported) > 0 && !host.SupportsNF(nf.FunctionalType) {
			return fmt.Errorf("%w: NF %s type %q unsupported on %s", ErrInvalid, id, nf.FunctionalType, nf.Host)
		}
	}
	for _, id := range g.InfraIDs() {
		if _, err := g.AvailableResources(id); err != nil {
			return err
		}
		for _, f := range g.Infras[id].Flowrules {
			if err := g.checkRulePort(g.Infras[id], f.Match.InPort); err != nil {
				return fmt.Errorf("infra %s flowrule %s: %w", id, f.ID, err)
			}
			if err := g.checkRulePort(g.Infras[id], f.Action.Output); err != nil {
				return fmt.Errorf("infra %s flowrule %s: %w", id, f.ID, err)
			}
		}
	}
	for _, r := range g.Reqs {
		for _, hid := range r.HopIDs {
			if g.HopByID(hid) == nil {
				return fmt.Errorf("%w: requirement %s hop %s missing", ErrInvalid, r.ID, hid)
			}
		}
	}
	return nil
}

// InfraTopo projects the static-link topology (infra + SAP nodes) into a
// topo.Graph for path computation. Link IDs are preserved.
//
// The graph's shape is compiled once and kept: Copy hands it to the next
// snapshot, so what a call normally costs is checking that the shape still
// describes g and filling one bandwidth vector from g.Links. The check is
// not optional — Links and the node maps are exported fields, and a caller
// that renames a link on a copy must get the graph it now describes.
func (g *NFFG) InfraTopo() *topo.Graph {
	if s := g.shape.Load(); s != nil && g.hasShape(s) {
		bw := make([]float64, len(g.Links))
		for i, l := range g.Links {
			bw[i] = l.Bandwidth
		}
		return s.Graph(bw)
	}
	nodes := make([]topo.NodeID, 0, len(g.Infras)+len(g.SAPs))
	for id := range g.Infras {
		nodes = append(nodes, topo.NodeID(id))
	}
	for id := range g.SAPs {
		nodes = append(nodes, topo.NodeID(id))
	}
	links := make([]topo.Link, len(g.Links))
	for i, l := range g.Links {
		links[i] = topoLink(l)
	}
	t, dropped := topo.Compile(nodes, links)
	if dropped == 0 {
		// Only then does the shape's link i stand for g.Links[i].
		g.shape.Store(t.Structure())
	}
	return t
}

// AdoptShape hands g the compiled topology from carries, as Copy does for a
// copy, so a graph rebuilt over the same infrastructure — a DoV cut merged
// again after a commit moved only reservations — skips recompiling it.
// InfraTopo still checks the adopted shape against g, so a stale one costs
// only that check.
func (g *NFFG) AdoptShape(from *NFFG) {
	if from != nil {
		g.shape.Store(from.shape.Load())
	}
}

// hasShape reports whether s is what compiling g now would produce: the same
// nodes, and the same links in the same order. It allocates nothing.
func (g *NFFG) hasShape(s *topo.Structure) bool {
	if s.NumNodes() != len(g.Infras)+len(g.SAPs) || s.NumLinks() != len(g.Links) {
		return false
	}
	for id := range g.Infras {
		if !s.HasNode(topo.NodeID(id)) {
			return false
		}
	}
	for id := range g.SAPs {
		if !s.HasNode(topo.NodeID(id)) {
			return false
		}
	}
	for i, l := range g.Links {
		want := topoLink(l)
		want.Bandwidth = 0 // not part of the shape
		if s.LinkAt(i) != want {
			return false
		}
	}
	return true
}

func topoLink(l *Link) topo.Link {
	return topo.Link{
		ID:        topo.LinkID(l.ID),
		Src:       topo.NodeID(l.SrcNode),
		Dst:       topo.NodeID(l.DstNode),
		Bandwidth: l.Bandwidth,
		Delay:     l.Delay,
		Cost:      1,
	}
}

// Merge folds other into g: disjoint node sets are required except for SAPs,
// which stitch (same SAP ID appearing in two domains is the inter-domain
// attachment point). Links and hops are appended. Used by the resource
// orchestrator to build the global domain view (DoV).
func (g *NFFG) Merge(other *NFFG) error {
	g.mustMutable("Merge")
	g.shape.Store(nil)
	for _, id := range other.InfraIDs() {
		if g.hasNode(id) {
			return fmt.Errorf("%w: infra %s present in both graphs", ErrDuplicateID, id)
		}
	}
	for _, id := range other.NFIDs() {
		if g.hasNode(id) {
			return fmt.Errorf("%w: NF %s present in both graphs", ErrDuplicateID, id)
		}
	}
	// Pre-grow the edge slices: a DoV merge folds many domain views into one
	// graph, and growing append-by-append reallocates on every shard.
	g.Links = slices.Grow(g.Links, len(other.Links))
	g.Hops = slices.Grow(g.Hops, len(other.Hops))
	g.Reqs = slices.Grow(g.Reqs, len(other.Reqs))
	for _, id := range other.InfraIDs() {
		g.Infras[id] = copyInfra(other.Infras[id])
	}
	for _, id := range other.NFIDs() {
		g.NFs[id] = copyNF(other.NFs[id])
	}
	for _, id := range other.SAPIDs() {
		if _, ok := g.SAPs[id]; ok {
			continue // shared SAP: stitching point
		}
		p := *other.SAPs[id].Port
		g.SAPs[id] = &SAP{ID: id, Name: other.SAPs[id].Name, Port: &p}
	}
	for _, l := range other.Links {
		cl := *l
		if g.LinkByID(l.ID) != nil {
			cl.ID = fmt.Sprintf("%s@%s", l.ID, other.ID)
		}
		g.Links = append(g.Links, &cl)
	}
	for _, h := range other.Hops {
		ch := *h
		g.Hops = append(g.Hops, &ch)
	}
	for _, r := range other.Reqs {
		cr := *r
		cr.HopIDs = append([]string(nil), r.HopIDs...)
		g.Reqs = append(g.Reqs, &cr)
	}
	return nil
}

// Delta is the difference between two NFFGs sharing a node universe: what an
// orchestrator must instantiate and tear down to move a domain from the old
// configuration to the new one. It is the payload equivalent of a NETCONF
// edit-config on the virtualizer model.
type Delta struct {
	// AddNFs are NFs (with Host set) to instantiate.
	AddNFs []*NF
	// DelNFs are NF IDs to terminate.
	DelNFs []ID
	// AddRules maps infra ID to flowrules to install.
	AddRules map[ID][]*Flowrule
	// DelRules maps infra ID to flowrules to remove (matched by Match key).
	DelRules map[ID][]*Flowrule
}

// Empty reports whether the delta carries no change.
func (d *Delta) Empty() bool {
	return len(d.AddNFs) == 0 && len(d.DelNFs) == 0 && len(d.AddRules) == 0 && len(d.DelRules) == 0
}

// Counts returns (NF additions, NF deletions, rule additions, rule deletions).
func (d *Delta) Counts() (int, int, int, int) {
	ar, dr := 0, 0
	for _, rs := range d.AddRules {
		ar += len(rs)
	}
	for _, rs := range d.DelRules {
		dr += len(rs)
	}
	return len(d.AddNFs), len(d.DelNFs), ar, dr
}

// Diff computes the delta that transforms old into new. Both graphs must
// describe the same infrastructure (same infra IDs); only NF placements and
// flowtables are compared — topology changes are a domain event, not a
// configuration. An infra or NF both graphs hold under one pointer is
// unchanged (a fork shares what it did not write), so Diff costs the change,
// not the graphs.
func Diff(oldG, newG *NFFG) (*Delta, error) {
	for id := range newG.Infras {
		if _, ok := oldG.Infras[id]; !ok {
			return nil, fmt.Errorf("%w: infra %s only in new graph", ErrInvalid, id)
		}
	}
	for id := range oldG.Infras {
		if _, ok := newG.Infras[id]; !ok {
			return nil, fmt.Errorf("%w: infra %s only in old graph", ErrInvalid, id)
		}
	}
	d := &Delta{AddRules: map[ID][]*Flowrule{}, DelRules: map[ID][]*Flowrule{}}
	// NF placements.
	for id, nf := range newG.NFs {
		old, ok := oldG.NFs[id]
		if nf == old || nf.Host == "" {
			continue
		}
		switch {
		case !ok || old.Host == "":
			d.AddNFs = append(d.AddNFs, copyNF(nf))
		case old.Host != nf.Host:
			// Migration = delete + add.
			d.DelNFs = append(d.DelNFs, id)
			d.AddNFs = append(d.AddNFs, copyNF(nf))
		}
	}
	for id, old := range oldG.NFs {
		nf, ok := newG.NFs[id]
		if nf == old || old.Host == "" {
			continue
		}
		if !ok || nf.Host == "" {
			d.DelNFs = append(d.DelNFs, id)
		}
	}
	sort.Slice(d.AddNFs, func(i, j int) bool { return d.AddNFs[i].ID < d.AddNFs[j].ID })
	sort.Slice(d.DelNFs, func(i, j int) bool { return d.DelNFs[i] < d.DelNFs[j] })
	// Flowtables, per infra, keyed by Match.
	for id, i := range newG.Infras {
		if oldG.Infras[id] == i {
			continue
		}
		oldTable, newTable := changedRules(oldG.Infras[id].Flowrules, i.Flowrules)
		if len(oldTable)+len(newTable) == 0 {
			continue
		}
		oldRules := indexRules(oldTable)
		newRules := indexRules(newTable)
		for k, nf := range newRules {
			if of, ok := oldRules[k]; !ok || !of.Equal(nf) {
				cf := *nf
				d.AddRules[id] = append(d.AddRules[id], &cf)
				if ok {
					cof := *of
					d.DelRules[id] = append(d.DelRules[id], &cof)
				}
			}
		}
		for k, of := range oldRules {
			if _, ok := newRules[k]; !ok {
				cof := *of
				d.DelRules[id] = append(d.DelRules[id], &cof)
			}
		}
		sortRules(d.AddRules[id])
		sortRules(d.DelRules[id])
		if len(d.AddRules[id]) == 0 {
			delete(d.AddRules, id)
		}
		if len(d.DelRules[id]) == 0 {
			delete(d.DelRules, id)
		}
	}
	return d, nil
}

// Apply mutates g by the delta: removes deleted NFs and rules, installs added
// ones. Apply(Diff(a, b), a) makes a equivalent to b for placements and
// flowtables.
func (g *NFFG) Apply(d *Delta) error {
	g.mustMutable("Apply")
	for _, id := range d.DelNFs {
		if nf := g.mutNF(id); nf != nil {
			nf.Host = ""
			nf.Status = StatusStopped
		}
	}
	for infra, rules := range d.DelRules {
		i := g.mutInfra(infra)
		if i == nil {
			return fmt.Errorf("%w: infra %s", ErrNotFound, infra)
		}
		drop := map[Match]bool{}
		for _, f := range rules {
			drop[f.Match] = true
		}
		i.Flowrules = slices.DeleteFunc(i.Flowrules, func(f *Flowrule) bool { return drop[f.Match] })
	}
	for _, nf := range d.AddNFs {
		if existing := g.mutNF(nf.ID); existing != nil {
			existing.Host = nf.Host
			existing.Status = StatusMapped
			existing.Demand = nf.Demand
		} else {
			c := copyNF(nf)
			c.Status = StatusMapped
			g.NFs[nf.ID] = c
		}
	}
	for infra, rules := range d.AddRules {
		i := g.mutInfra(infra)
		if i == nil {
			return fmt.Errorf("%w: infra %s", ErrNotFound, infra)
		}
		for _, f := range rules {
			cf := *f
			// Rule identity for diffing is the Match; IDs are advisory. An
			// ID collision with an unrelated existing rule is resolved by
			// renaming (Equal ignores IDs, so convergence is unaffected).
			for n := 2; ruleIDExists(i, cf.ID); n++ {
				cf.ID = fmt.Sprintf("%s~%d", f.ID, n)
			}
			if err := g.AddFlowrule(infra, &cf); err != nil {
				return err
			}
		}
	}
	g.NextVersion()
	return nil
}

func ruleIDExists(i *Infra, id string) bool {
	if id == "" {
		return false
	}
	for _, f := range i.Flowrules {
		if f.ID == id {
			return true
		}
	}
	return false
}

// changedRules narrows two flowtables to the part a Match-keyed diff can tell
// apart. An install appends a few rules to a table and a remove takes a few
// out, so most of a table reads the same rule for rule from the front and
// from the back, and indexing that part (every table, both sides, on every
// install and remove) finds nothing. It is cut off — unless a Match of what is
// left also occurs in what would be cut, where the index lets the last rule
// of a Match stand for the others and the whole tables have to be indexed.
func changedRules(oldTable, newTable []*Flowrule) ([]*Flowrule, []*Flowrule) {
	front := 0
	for front < len(oldTable) && front < len(newTable) && oldTable[front].Equal(newTable[front]) {
		front++
	}
	oldRest, newRest := oldTable[front:], newTable[front:]
	back := 0
	for back < len(oldRest) && back < len(newRest) && oldRest[len(oldRest)-1-back].Equal(newRest[len(newRest)-1-back]) {
		back++
	}
	oldRest, newRest = oldRest[:len(oldRest)-back], newRest[:len(newRest)-back]
	cutAlso := func(f *Flowrule) bool {
		same := func(c *Flowrule) bool { return c.Match == f.Match }
		return slices.ContainsFunc(oldTable[:front], same) || slices.ContainsFunc(oldTable[len(oldTable)-back:], same)
	}
	if slices.ContainsFunc(oldRest, cutAlso) || slices.ContainsFunc(newRest, cutAlso) {
		return oldTable, newTable
	}
	return oldRest, newRest
}

func indexRules(rules []*Flowrule) map[Match]*Flowrule {
	m := make(map[Match]*Flowrule, len(rules))
	for _, f := range rules {
		m[f.Match] = f
	}
	return m
}

func sortRules(rs []*Flowrule) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Match.InPort != b.Match.InPort {
			return a.Match.InPort.String() < b.Match.InPort.String()
		}
		return a.Match.Tag < b.Match.Tag
	})
}
