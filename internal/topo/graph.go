// Package topo provides the weighted directed multigraph that underlies
// resource views, domain topologies and the embedding algorithms.
//
// A graph is compiled once into an immutable, index-based Structure — node
// names, an edge table, adjacency as edge indices — plus a flat vector of
// per-link available bandwidth, the only thing an embedding ever changes.
// Many Graph values share one Structure; each owns its bandwidth vector.
// Nodes and links are identified by string IDs and every iteration order is
// sorted, so results are deterministic. Links are directed; a bidirectional
// physical link is two directed links.
package topo

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// NodeID identifies a node in the graph.
type NodeID string

// LinkID identifies a directed link in the graph. IDs are unique per graph;
// multiple links may connect the same node pair (multigraph).
type LinkID string

// Link is a directed, capacitated edge.
type Link struct {
	ID        LinkID
	Src, Dst  NodeID
	Bandwidth float64 // available bandwidth, arbitrary units (e.g. Mbit/s)
	Delay     float64 // propagation delay, arbitrary units (e.g. ms)
	Cost      float64 // administrative cost used when Metric is MetricCost
}

// Errors returned by graph queries.
var (
	ErrNodeNotFound = errors.New("topo: node not found")
	ErrLinkNotFound = errors.New("topo: link not found")
	ErrNoPath       = errors.New("topo: no feasible path")
)

// Structure is the immutable shape of a graph: everything but the links'
// bandwidth. It is safe for concurrent use and meant to be shared.
type Structure struct {
	// names is sorted, so a node's index is its rank: ordering node indices
	// orders node IDs.
	names []NodeID
	index map[NodeID]int32
	// edges keeps the order Compile received the links in, which is how a
	// bandwidth vector lines up with its source.
	edges []edge
	// out[outAt[n]:outAt[n+1]] are the edges leaving node n, sorted by link ID.
	outAt []int32
	out   []int32
	// byID is every edge index, sorted by link ID.
	byID []int32
}

type edge struct {
	id          LinkID
	src, dst    int32
	delay, cost float64
}

// Graph is a directed multigraph: a shared Structure and this graph's own
// available bandwidth per link.
type Graph struct {
	s  *Structure
	bw []float64
}

// Compile builds a graph from its nodes and links. A link whose ID repeats an
// earlier one or whose endpoint is not among the nodes is left out; dropped
// counts them. When none is dropped, edge i of the structure is links[i].
func Compile(nodes []NodeID, links []Link) (g *Graph, dropped int) {
	s := &Structure{names: slices.Clone(nodes)}
	slices.Sort(s.names)
	s.names = slices.Compact(s.names)
	s.index = make(map[NodeID]int32, len(s.names))
	for i, n := range s.names {
		s.index[n] = int32(i)
	}
	s.byID = orderByID(links)
	valid := true
	for i, l := range links {
		if !s.HasNode(l.Src) || !s.HasNode(l.Dst) || (i > 0 && links[s.byID[i]].ID == links[s.byID[i-1]].ID) {
			valid = false
			break
		}
	}
	if !valid {
		seen := make(map[LinkID]bool, len(links))
		kept := make([]Link, 0, len(links))
		for _, l := range links {
			if !seen[l.ID] && s.HasNode(l.Src) && s.HasNode(l.Dst) {
				seen[l.ID] = true
				kept = append(kept, l)
			}
		}
		dropped = len(links) - len(kept)
		links = kept
		s.byID = orderByID(links)
	}
	s.edges = make([]edge, len(links))
	bw := make([]float64, len(links))
	s.outAt = make([]int32, len(s.names)+1)
	for i, l := range links {
		s.edges[i] = edge{id: l.ID, src: s.index[l.Src], dst: s.index[l.Dst], delay: l.Delay, cost: l.Cost}
		bw[i] = l.Bandwidth
		s.outAt[s.edges[i].src+1]++
	}
	for n := range s.names {
		s.outAt[n+1] += s.outAt[n]
	}
	s.out = make([]int32, len(links))
	next := slices.Clone(s.outAt[:len(s.names)])
	for _, e := range s.byID {
		src := s.edges[e].src
		s.out[next[src]] = e
		next[src]++
	}
	return &Graph{s: s, bw: bw}, dropped
}

// orderByID returns the indices of links sorted by link ID, equal IDs in the
// order given.
func orderByID(links []Link) []int32 {
	order := make([]int32, len(links))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(links[a].ID, links[b].ID), cmp.Compare(a, b))
	})
	return order
}

// Graph returns a graph of this structure whose link i has bandwidth bw[i];
// the graph takes ownership of bw, which must have NumLinks elements.
func (s *Structure) Graph(bw []float64) *Graph {
	if len(bw) != len(s.edges) {
		panic(fmt.Sprintf("topo: %d bandwidths for %d links", len(bw), len(s.edges)))
	}
	return &Graph{s: s, bw: bw}
}

// NumNodes returns the node count.
func (s *Structure) NumNodes() int { return len(s.names) }

// NumLinks returns the directed link count.
func (s *Structure) NumLinks() int { return len(s.edges) }

// HasNode reports whether the node exists.
func (s *Structure) HasNode(id NodeID) bool {
	_, ok := s.index[id]
	return ok
}

// LinkAt returns link i in the order the structure was compiled from, without
// a bandwidth.
func (s *Structure) LinkAt(i int) Link {
	e := &s.edges[i]
	return Link{ID: e.id, Src: s.names[e.src], Dst: s.names[e.dst], Delay: e.delay, Cost: e.cost}
}

// find returns the edge index of the link with the given ID.
func (s *Structure) find(id LinkID) (int32, bool) {
	i, ok := slices.BinarySearchFunc(s.byID, id, func(e int32, id LinkID) int {
		return cmp.Compare(s.edges[e].id, id)
	})
	if !ok {
		return 0, false
	}
	return s.byID[i], true
}

// Structure returns the graph's shape, to build further graphs on.
func (g *Graph) Structure() *Structure { return g.s }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.s.NumNodes() }

// NumLinks returns the directed link count.
func (g *Graph) NumLinks() int { return g.s.NumLinks() }

// Nodes returns all node IDs in sorted order.
func (g *Graph) Nodes() []NodeID { return slices.Clone(g.s.names) }

// Links returns all links sorted by ID.
func (g *Graph) Links() []Link {
	out := make([]Link, len(g.s.byID))
	for i, e := range g.s.byID {
		out[i] = g.s.LinkAt(int(e))
		out[i].Bandwidth = g.bw[e]
	}
	return out
}

// Reserve takes bw from the available bandwidth of every one of the links, or
// of none when one is unknown or holds less. It appends what each link held
// before to saved and returns it, for Restore.
func (g *Graph) Reserve(links []LinkID, bw float64, saved []float64) ([]float64, error) {
	mark := len(saved)
	for i, id := range links {
		e, ok := g.s.find(id)
		var err error
		switch {
		case !ok:
			err = fmt.Errorf("%w: %s", ErrLinkNotFound, id)
		case g.bw[e]-bw < 0:
			err = fmt.Errorf("topo: link %s bandwidth would become negative (%g%+g)", id, g.bw[e], -bw)
		}
		if err != nil {
			g.Restore(links[:i], saved[mark:])
			return saved[:mark], err
		}
		saved = append(saved, g.bw[e])
		g.bw[e] -= bw
	}
	return saved, nil
}

// Restore gives the links back the bandwidths a Reserve of them saved — the
// values themselves, so reserving and restoring leaves no rounding behind.
func (g *Graph) Restore(links []LinkID, saved []float64) {
	for i, id := range links {
		if e, ok := g.s.find(id); ok {
			g.bw[e] = saved[i]
		}
	}
}

// Components returns the weakly connected components, each sorted, the list
// sorted by its first element.
func (g *Graph) Components() [][]NodeID {
	root := make([]int32, len(g.s.names))
	for i := range root {
		root[i] = int32(i)
	}
	find := func(n int32) int32 {
		for root[n] != n {
			root[n] = root[root[n]]
			n = root[n]
		}
		return n
	}
	for _, e := range g.s.edges {
		// The smaller index becomes the root, so a component's root is its
		// first node and roots come up in sorted order below.
		a, b := find(e.src), find(e.dst)
		root[max(a, b)] = min(a, b)
	}
	at := make(map[int32]int)
	var comps [][]NodeID
	for n, name := range g.s.names {
		r := find(int32(n))
		c, ok := at[r]
		if !ok {
			c = len(comps)
			at[r] = c
			comps = append(comps, nil)
		}
		comps[c] = append(comps[c], name)
	}
	return comps
}

// Connected reports whether dst is reachable from src following directed links.
func (g *Graph) Connected(src, dst NodeID) bool {
	from, ok := g.s.index[src]
	to, ok2 := g.s.index[dst]
	if !ok || !ok2 {
		return false
	}
	if from == to {
		return true
	}
	ws := getWorkspace(g.s)
	defer putWorkspace(ws)
	ws.seen[from] = ws.epoch
	queue := append(ws.heap, from)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range g.s.out[g.s.outAt[n]:g.s.outAt[n+1]] {
			v := g.s.edges[e].dst
			if v == to {
				return true
			}
			if ws.seen[v] != ws.epoch {
				ws.seen[v] = ws.epoch
				queue = append(queue, v)
			}
		}
	}
	return false
}
