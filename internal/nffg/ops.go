package nffg

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"github.com/unify-repro/escape/internal/topo"
)

// Copy returns a deep copy of the graph. The copy is never sealed (it is the
// escape hatch for mutating a shared snapshot), and its maps and edge slices
// are pre-sized from the source — Copy sits on every cache miss of the
// orchestration read path, so its allocation count matters. The copy keeps
// the compiled topology (see InfraTopo), so it too has its links' fields
// other than Bandwidth written only through EditLinks.
func (g *NFFG) Copy() *NFFG {
	c := NewSized(g.ID, g.Infras.Len(), g.NFs.Len(), g.SAPs.Len())
	c.Name = g.Name
	c.Version = g.Version
	c.shape.Store(g.shape.Load())
	for id, i := range g.Infras.All() {
		c.Infras.set(id, copyInfra(i))
	}
	for id, n := range g.NFs.All() {
		c.NFs.set(id, copyNF(n))
	}
	for id, s := range g.SAPs.All() {
		p := *s.Port
		c.SAPs.set(id, &SAP{ID: s.ID, Name: s.Name, Port: &p})
	}
	c.links = g.links.clone(func(l *Link) *Link { cl := *l; return &cl })
	c.hops = g.hops.clone(func(h *SGHop) *SGHop { ch := *h; return &ch })
	c.reqs = g.reqs.clone(copyReq)
	return c
}

func copyInfra(i *Infra) *Infra {
	c := *i
	c.Ports = copyPorts(i.Ports)
	c.Supported = append([]string(nil), i.Supported...)
	c.rules = i.rules.clone(func(f *Flowrule) *Flowrule { cf := *f; return &cf })
	return &c
}

func copyReq(r *Requirement) *Requirement {
	c := *r
	c.HopIDs = append([]string(nil), r.HopIDs...)
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
// changing g. The node maps and the edge lists are shared (see Table and
// edgeList: the fork copies only what the generations since their base
// changed); every *Infra, *NF, *SAP, *Link, *SGHop and *Requirement is
// shared, and the fork's mutators clone an infra, NF or link the first time
// they write it, so a commit allocates for what it changes, not for the
// graph.
//
// A fork writes only through mutators (Add*, Record*, Remove*, AddFlowrule,
// RemoveFlowrulesByHop, Apply, MutLink, EditLinks): a field written directly
// on a shared entity changes g too, so callers that do that use Copy.
// Forking an unsealed g makes g clone on write as well, since either may
// write what both share, and moves g's node maps and edge lists onto the
// base it now shares with the fork.
func (g *NFFG) Fork() *NFFG {
	c := &NFFG{ID: g.ID, Name: g.Name, Version: g.Version, shape: shapeRef{new(atomic.Pointer[topo.Structure])}}
	c.shape.Store(g.shape.Load())
	c.Infras = g.Infras.fork(g.sealed)
	c.NFs = g.NFs.fork(g.sealed)
	c.SAPs = g.SAPs.fork(g.sealed)
	c.links = g.links.fork(g.sealed)
	c.hops = g.hops.fork(g.sealed)
	c.reqs = g.reqs.fork(g.sealed)
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

// mutInfra returns infra id for writing (nil if absent). A clone shares the
// flowtable of the infra it copies, which no generation writes from then on,
// so it takes the next generation of the list (see edgeList.fork) and writes
// only its own overlay; the rules themselves are never written in place.
func (g *NFFG) mutInfra(id ID) *Infra {
	i := g.Infras.Get(id)
	if c := own(g, i); c != i {
		c.rules = i.rules.fork(true)
		g.Infras.set(id, c)
		return c
	}
	return i
}

// MutNF returns NF id for writing any field but its ID (nil if absent): on
// a fork, the fork's own clone.
func (g *NFFG) MutNF(id ID) *NF {
	g.mustMutable("MutNF")
	n := own(g, g.NFs.Get(id))
	if n != nil {
		g.NFs.set(id, n)
	}
	return n
}

// MutLink returns the static link with the given ID for writing its
// Bandwidth (nil if absent): on a fork, the fork's own clone. The compiled
// topology (see InfraTopo) stays, so a caller that changes anything else of
// the link uses EditLinks.
func (g *NFFG) MutLink(id string) *Link {
	g.mustMutable("MutLink")
	for at, run := range g.links.runs() {
		for i, l := range run {
			if l.ID == id {
				if c := own(g, l); c != l {
					g.links.set(at+i, c)
					return c
				}
				return l
			}
		}
	}
	return nil
}

// EditLinks calls edit on every static link, in order, for writing any of
// its fields: on a fork, on the fork's own clones.
func (g *NFFG) EditLinks(edit func(l *Link)) {
	g.mustMutable("EditLinks")
	g.shape.Store(nil)
	links := g.links.flat() // a flat list's own slice, or a fresh one
	for i, l := range links {
		if c := own(g, l); c != l {
			links[i] = c
			l = c
		}
		edit(l)
	}
	g.links = edgeList[Link]{tail: links}
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
	for id, i := range g.Infras.All() {
		check("infra", string(id), i.Capacity.CPU, i.Capacity.Mem, i.Capacity.Storage, i.Capacity.Bandwidth, i.Capacity.Delay)
	}
	for id, n := range g.NFs.All() {
		check("NF", string(id), n.Demand.CPU, n.Demand.Mem, n.Demand.Storage, n.Demand.Bandwidth, n.Demand.Delay)
	}
	for l := range g.Links() {
		check("link", l.ID, l.Bandwidth, l.Delay)
	}
	for h := range g.Hops() {
		check("hop", h.ID, h.Bandwidth, h.Delay)
	}
	for r := range g.Reqs() {
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
	for l := range g.Links() {
		if err := g.checkEndpoint(l.SrcNode, l.SrcPort); err != nil {
			return fmt.Errorf("link %s: %w", l.ID, err)
		}
		if err := g.checkEndpoint(l.DstNode, l.DstPort); err != nil {
			return fmt.Errorf("link %s: %w", l.ID, err)
		}
	}
	for h := range g.Hops() {
		if err := g.checkEndpoint(h.SrcNode, h.SrcPort); err != nil {
			return fmt.Errorf("hop %s: %w", h.ID, err)
		}
		if err := g.checkEndpoint(h.DstNode, h.DstPort); err != nil {
			return fmt.Errorf("hop %s: %w", h.ID, err)
		}
	}
	for _, id := range g.NFIDs() {
		nf := g.NFs.Get(id)
		if nf.Host == "" {
			continue
		}
		host, ok := g.Infras.Lookup(nf.Host)
		if !ok {
			// In a pure service graph (no infrastructure), Host is an
			// external placement pin resolved by a lower layer against its
			// own view; only graphs that carry infrastructure must resolve
			// hosts internally.
			if g.Infras.Len() == 0 {
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
		i := g.Infras.Get(id)
		for f := range i.Flowrules() {
			if err := g.checkRulePort(i, f.Match.InPort); err != nil {
				return fmt.Errorf("infra %s flowrule %s: %w", id, f.ID, err)
			}
			if err := g.checkRulePort(i, f.Action.Output); err != nil {
				return fmt.Errorf("infra %s flowrule %s: %w", id, f.ID, err)
			}
		}
	}
	for r := range g.Reqs() {
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
// The graph's shape is compiled once and kept: Copy and Fork hand it to the
// next snapshot, so what a call normally costs is filling one bandwidth
// vector from the links. The shape is trusted, not checked: the mutators
// that add nodes or change more than a link's Bandwidth (AddInfra, AddSAP,
// AddLink, EditLinks, Merge) drop it, the node tables are written only
// through them, and no caller writes any other field of a link through its
// pointer, on any graph, a Copy included. Race and nffg_sealcheck builds
// check that rule here and panic on a breach.
func (g *NFFG) InfraTopo() *topo.Graph {
	if s := g.shape.Load(); s != nil {
		if sealCheckEnabled && (!g.nodesFit(s) || !g.linksFit(s)) {
			panic("nffg: graph " + g.ID + " changed under its compiled shape (see InfraTopo)")
		}
		bw := make([]float64, 0, g.links.len())
		for _, run := range g.links.runs() {
			for _, l := range run {
				bw = append(bw, l.Bandwidth)
			}
		}
		return s.Graph(bw)
	}
	nodes := make([]topo.NodeID, 0, g.Infras.Len()+g.SAPs.Len())
	for id := range g.Infras.All() {
		nodes = append(nodes, topo.NodeID(id))
	}
	for id := range g.SAPs.All() {
		nodes = append(nodes, topo.NodeID(id))
	}
	links := make([]topo.Link, 0, g.links.len())
	for l := range g.Links() {
		links = append(links, topoLink(l))
	}
	t, dropped := topo.Compile(nodes, links)
	if dropped == 0 {
		// Only then does the shape's link i stand for g's link i.
		g.shape.Store(t.Structure())
	}
	return t
}

// AdoptShape hands g the compiled topology from carries, as Copy does for a
// copy, so a graph rebuilt over the same infrastructure — a DoV cut merged
// again after a commit moved only reservations — skips recompiling it. The
// shape is adopted only if it holds g's nodes and g's links, in g's order:
// this is the one place a shape meets a graph it was not compiled from, so
// it checks them here, once, and InfraTopo then trusts it.
func (g *NFFG) AdoptShape(from *NFFG) {
	if from == nil {
		return
	}
	if s := from.shape.Load(); s != nil && g.nodesFit(s) && g.linksFit(s) {
		g.shape.Store(s)
	}
}

// nodesFit reports whether s holds g's nodes and no others. It allocates
// nothing.
func (g *NFFG) nodesFit(s *topo.Structure) bool {
	if s.NumNodes() != g.Infras.Len()+g.SAPs.Len() {
		return false
	}
	for id := range g.Infras.All() {
		if !s.HasNode(topo.NodeID(id)) {
			return false
		}
	}
	for id := range g.SAPs.All() {
		if !s.HasNode(topo.NodeID(id)) {
			return false
		}
	}
	return true
}

// linksFit reports whether s holds g's links, in g's order, Bandwidth aside.
func (g *NFFG) linksFit(s *topo.Structure) bool {
	if s.NumLinks() != g.links.len() {
		return false
	}
	i := 0
	for l := range g.Links() {
		want := topoLink(l)
		want.Bandwidth = 0 // not part of the shape
		if s.LinkAt(i) != want {
			return false
		}
		i++
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
//
// A sealed other never changes, so Merge puts its entities into g as they
// are and clones only a link it renames on an ID collision; merging a DoV cut
// from sealed shard snapshots then allocates for the cut, not for every
// entity in it. g becomes clone-on-write like a fork (see Fork): its mutators
// clone an entity the first time they write it, and a field written directly
// would change other too, so a graph that merged a sealed source writes only
// through mutators. An unsealed other is deep-copied.
func (g *NFFG) Merge(other *NFFG) error {
	g.mustMutable("Merge")
	g.shape.Store(nil)
	for id := range other.Infras.All() {
		if g.hasNode(id) {
			return fmt.Errorf("%w: infra %s present in both graphs", ErrDuplicateID, id)
		}
	}
	for id := range other.NFs.All() {
		if g.hasNode(id) {
			return fmt.Errorf("%w: NF %s present in both graphs", ErrDuplicateID, id)
		}
	}
	share := other.sealed
	if share && g.owned == nil {
		g.owned = map[any]struct{}{}
	}
	// Pre-grow the edge lists: a DoV merge folds many domain views into one
	// graph, and growing append-by-append reallocates on every shard.
	g.links.grow(other.links.len())
	g.hops.grow(other.hops.len())
	g.reqs.grow(other.reqs.len())
	for id, i := range other.Infras.All() {
		if !share {
			i = copyInfra(i)
		}
		g.Infras.set(id, i)
	}
	for id, n := range other.NFs.All() {
		if !share {
			n = copyNF(n)
		}
		g.NFs.set(id, n)
	}
	for id, s := range other.SAPs.All() {
		if _, ok := g.SAPs.Lookup(id); ok {
			continue // shared SAP: stitching point
		}
		if !share {
			p := *s.Port
			s = &SAP{ID: id, Name: s.Name, Port: &p}
		}
		g.SAPs.set(id, s)
	}
	for l := range other.Links() {
		renamed := g.LinkByID(l.ID) != nil
		if renamed || !share {
			cl := *l
			l = &cl
		}
		if renamed {
			l.ID = fmt.Sprintf("%s@%s", l.ID, other.ID)
		}
		g.links.add(l)
	}
	for h := range other.Hops() {
		if !share {
			ch := *h
			h = &ch
		}
		g.hops.add(h)
	}
	for r := range other.Reqs() {
		if !share {
			r = copyReq(r)
		}
		g.reqs.add(r)
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
// unchanged (a fork shares what it did not write), and when one graph is a
// fork of the other, or both of one base, Diff visits only the entries their
// overlays hold (see Table): it costs the change, not the graphs.
func Diff(oldG, newG *NFFG) (*Delta, error) {
	for id := range changedIDs(&oldG.Infras, &newG.Infras) {
		if _, ok := oldG.Infras.Lookup(id); !ok {
			return nil, fmt.Errorf("%w: infra %s only in new graph", ErrInvalid, id)
		}
	}
	for id := range changedIDs(&oldG.Infras, &newG.Infras) {
		if _, ok := newG.Infras.Lookup(id); !ok {
			return nil, fmt.Errorf("%w: infra %s only in old graph", ErrInvalid, id)
		}
	}
	d := &Delta{AddRules: map[ID][]*Flowrule{}, DelRules: map[ID][]*Flowrule{}}
	// NF placements.
	for id := range changedIDs(&oldG.NFs, &newG.NFs) {
		old, nf := oldG.NFs.Get(id), newG.NFs.Get(id)
		if nf == old {
			continue
		}
		wasPlaced, placed := old != nil && old.Host != "", nf != nil && nf.Host != ""
		switch {
		case placed && !wasPlaced:
			d.AddNFs = append(d.AddNFs, copyNF(nf))
		case placed && old.Host != nf.Host:
			// Migration = delete + add.
			d.DelNFs = append(d.DelNFs, id)
			d.AddNFs = append(d.AddNFs, copyNF(nf))
		case wasPlaced && !placed:
			d.DelNFs = append(d.DelNFs, id)
		}
	}
	slices.SortFunc(d.AddNFs, func(a, b *NF) int { return cmp.Compare(a.ID, b.ID) })
	slices.Sort(d.DelNFs)
	// Flowtables, per infra, keyed by Match.
	for id := range changedIDs(&oldG.Infras, &newG.Infras) {
		old, i := oldG.Infras.Get(id), newG.Infras.Get(id)
		if old == i {
			continue
		}
		add, del := diffFlowtables(&old.rules, &i.rules)
		if len(add) > 0 {
			sortRules(add)
			d.AddRules[id] = add
		}
		if len(del) > 0 {
			sortRules(del)
			d.DelRules[id] = del
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
		if nf := g.MutNF(id); nf != nil {
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
		i.rules.deleteFunc(func(f *Flowrule) bool { return drop[f.Match] })
	}
	for _, nf := range d.AddNFs {
		if existing := g.MutNF(nf.ID); existing != nil {
			existing.Host = nf.Host
			existing.Status = StatusMapped
			existing.Demand = nf.Demand
		} else {
			c := copyNF(nf)
			c.Status = StatusMapped
			g.NFs.set(nf.ID, c)
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
	for f := range i.Flowrules() {
		if f.ID == id {
			return true
		}
	}
	return false
}

// diffFlowtables returns the rules to add and to delete to turn the
// flowtable oldL into newL, keyed by Match: where a Match occurs more than
// once, its last rule stands for it, and a Match whose rule is not Equal on
// both sides deletes the old rule and adds the new one. The rules are the
// tables' own: a Delta shares them with its graphs.
//
// An install adds a few rules to a table and a remove takes a few out, so
// the comparison reads only the rules the two tables differ in: when one
// table is a fork of the other, or both of one base, those their overlays
// hold (see appendChanges), unless a Match of them also occurs in the rest
// of the table; otherwise the whole tables, less what changedRules cuts off.
// What is left is a few rules, so each looks its Match up by a scan.
func diffFlowtables(oldL, newL *edgeList[Flowrule]) (add, del []*Flowrule) {
	var oldBuf, newBuf [16]*Flowrule // room for a commit's few rules
	oldRest, newRest, ok := appendChanges(oldBuf[:0], newBuf[:0], oldL, newL)
	if !ok || matchesOutside(oldL, oldRest, oldRest) || matchesOutside(oldL, oldRest, newRest) {
		oldRest, newRest = changedRules(slices.AppendSeq(oldRest[:0], oldL.all()), slices.AppendSeq(newRest[:0], newL.all()))
	}
	for j, nf := range newRest {
		if !lastOfMatch(newRest, j) {
			continue
		}
		if of := lastRule(oldRest, nf.Match); of == nil || !of.Equal(nf) {
			add = append(add, nf)
			if of != nil {
				del = append(del, of)
			}
		}
	}
	for j, of := range oldRest {
		if lastOfMatch(oldRest, j) && lastRule(newRest, of.Match) == nil {
			del = append(del, of)
		}
	}
	return add, del
}

// matchesOutside reports whether a Match of some rule of rs occurs in table
// more often than in part, a part of table.
func matchesOutside(table *edgeList[Flowrule], part, rs []*Flowrule) bool {
	for _, f := range rs {
		n := 0
		for r := range table.all() {
			if r.Match == f.Match {
				n++
			}
		}
		for _, r := range part {
			if r.Match == f.Match {
				n--
			}
		}
		if n > 0 {
			return true
		}
	}
	return false
}

// lastOfMatch reports whether rs[j] is the last rule of its Match in rs.
func lastOfMatch(rs []*Flowrule, j int) bool {
	return !slices.ContainsFunc(rs[j+1:], func(f *Flowrule) bool { return f.Match == rs[j].Match })
}

// lastRule returns the last rule of m in rs, or nil.
func lastRule(rs []*Flowrule, m Match) *Flowrule {
	for j := len(rs) - 1; j >= 0; j-- {
		if rs[j].Match == m {
			return rs[j]
		}
	}
	return nil
}

// changedRules narrows two whole flowtables to the part a Match-keyed diff
// can tell apart. An install appends a few rules to a table and a remove
// takes a few out, so most of a table reads the same rule for rule from the
// front and from the back, and comparing that part finds nothing. It is cut
// off — unless a Match of what is left also occurs in what would be cut,
// where the last rule of a Match stands for the others and the whole tables
// have to be compared.
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

// sortRules orders a Delta's rules by in-port, as PortRef.String renders
// it, then by tag.
func sortRules(rs []*Flowrule) {
	slices.SortFunc(rs, func(a, b *Flowrule) int {
		if a.Match.InPort == b.Match.InPort {
			return strings.Compare(a.Match.Tag, b.Match.Tag)
		}
		var ab, bb [64]byte
		return bytes.Compare(a.Match.InPort.appendString(ab[:0]), b.Match.InPort.appendString(bb[:0]))
	})
}
