package topo

import (
	"encoding/json"
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"sync"
)

// Metric selects the per-link weight used by the shortest-path algorithms.
type Metric int

// Supported metrics.
const (
	// MetricDelay weights links by their Delay field.
	MetricDelay Metric = iota
	// MetricHops weights every link as 1.
	MetricHops
	// MetricCost weights links by their Cost field.
	MetricCost
)

func (m Metric) weight(e *edge) float64 {
	switch m {
	case MetricHops:
		return 1
	case MetricCost:
		return e.cost
	default:
		return e.delay
	}
}

// PathOpts constrains path computation.
type PathOpts struct {
	// MinBandwidth prunes links with less available bandwidth.
	MinBandwidth float64
	// MaxDelay rejects paths whose summed Delay exceeds it (0 = unbounded).
	MaxDelay float64
	// Metric is the optimization objective (default MetricDelay).
	Metric Metric
	// Avoid lists nodes that must not appear as intermediate hops.
	Avoid map[NodeID]bool
	// AvoidLinks lists links that must not be used.
	AvoidLinks map[LinkID]bool
}

// Path is a walk through the graph. Nodes has one more element than Links.
type Path struct {
	Nodes  []NodeID
	Links  []LinkID
	Weight float64 // total weight under the metric used to compute the path
	Delay  float64 // total link delay along the path
	MinBW  float64 // bottleneck available bandwidth along the path
}

// pathJSON mirrors Path with a nullable bottleneck: MinBW is +Inf on
// link-less paths (an unconstrained bottleneck), which JSON cannot encode.
type pathJSON struct {
	Nodes  []NodeID
	Links  []LinkID
	Weight float64
	Delay  float64
	MinBW  *float64
}

// MarshalJSON encodes the path with an unconstrained (+Inf) bottleneck as a
// null MinBW, so paths survive the write-ahead journal and API responses.
func (p Path) MarshalJSON() ([]byte, error) {
	pj := pathJSON{Nodes: p.Nodes, Links: p.Links, Weight: p.Weight, Delay: p.Delay}
	if !math.IsInf(p.MinBW, 0) {
		pj.MinBW = &p.MinBW
	}
	return json.Marshal(pj)
}

// UnmarshalJSON is the inverse of MarshalJSON: a null or absent MinBW decodes
// back to +Inf.
func (p *Path) UnmarshalJSON(data []byte) error {
	var pj pathJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return err
	}
	p.Nodes, p.Links, p.Weight, p.Delay = pj.Nodes, pj.Links, pj.Weight, pj.Delay
	if pj.MinBW != nil {
		p.MinBW = *pj.MinBW
	} else {
		p.MinBW = math.Inf(1)
	}
	return nil
}

// Hops returns the number of links in the path.
func (p Path) Hops() int { return len(p.Links) }

// String renders the path as "a -> b -> c (w=..)".
func (p Path) String() string {
	s := ""
	for i, n := range p.Nodes {
		if i > 0 {
			s += " -> "
		}
		s += string(n)
	}
	return fmt.Sprintf("%s (w=%.3g)", s, p.Weight)
}

// workspace is the scratch memory of one search: dense per-node and per-edge
// arrays where a map per search used to be. An entry counts only while its
// stamp equals epoch, so starting a search is an increment, not a clear.
type workspace struct {
	epoch             uint32
	seen, done, avoid []uint32 // per node
	banned            []uint32 // per edge
	dist, delay       []float64
	via               []int32 // the edge a node was reached over
	pos               []int32 // a node's place in heap
	heap              []int32 // nodes by (dist, index); the queue of a BFS
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// getWorkspace returns a workspace with room for s and nothing stamped.
func getWorkspace(s *Structure) *workspace {
	ws := workspaces.Get().(*workspace)
	if n := len(s.names); len(ws.seen) < n {
		ws.seen, ws.done, ws.avoid = make([]uint32, n), make([]uint32, n), make([]uint32, n)
		ws.dist, ws.delay = make([]float64, n), make([]float64, n)
		ws.via, ws.pos, ws.heap = make([]int32, n), make([]int32, n), make([]int32, 0, n)
	}
	if m := len(s.edges); len(ws.banned) < m {
		ws.banned = make([]uint32, m)
	}
	ws.epoch++
	if ws.epoch == 0 { // wrapped: stamps of 2^32 searches ago would count again
		clear(ws.seen)
		clear(ws.done)
		clear(ws.avoid)
		clear(ws.banned)
		ws.epoch = 1
	}
	ws.heap = ws.heap[:0]
	return ws
}

func putWorkspace(ws *workspace) { workspaces.Put(ws) }

// avoidNode and banLink mark a node or link of s, if it has one of that name,
// as off limits for this search.
func (ws *workspace) avoidNode(s *Structure, id NodeID) {
	if n, ok := s.index[id]; ok {
		ws.avoid[n] = ws.epoch
	}
}

func (ws *workspace) banLink(s *Structure, id LinkID) {
	if e, ok := s.find(id); ok {
		ws.banned[e] = ws.epoch
	}
}

func (ws *workspace) less(a, b int32) bool {
	if ws.dist[a] != ws.dist[b] {
		return ws.dist[a] < ws.dist[b]
	}
	return a < b // deterministic tie-break: index order is NodeID order
}

func (ws *workspace) swap(i, j int) {
	h := ws.heap
	h[i], h[j] = h[j], h[i]
	ws.pos[h[i]], ws.pos[h[j]] = int32(i), int32(j)
}

func (ws *workspace) push(v int32) {
	ws.pos[v] = int32(len(ws.heap))
	ws.heap = append(ws.heap, v)
	ws.up(len(ws.heap) - 1)
}

func (ws *workspace) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !ws.less(ws.heap[i], ws.heap[parent]) {
			break
		}
		ws.swap(i, parent)
		i = parent
	}
}

func (ws *workspace) pop() int32 {
	top, last := ws.heap[0], len(ws.heap)-1
	ws.swap(0, last)
	ws.heap = ws.heap[:last]
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < last; c++ {
			if ws.less(ws.heap[c], ws.heap[least]) {
				least = c
			}
		}
		if least == i {
			return top
		}
		ws.swap(i, least)
		i = least
	}
}

// ShortestPath runs Dijkstra from src to dst under the given constraints.
// It returns ErrNoPath when dst is unreachable under the constraints.
func (g *Graph) ShortestPath(src, dst NodeID, opts PathOpts) (Path, error) {
	return g.shortest(src, dst, &opts, nil, nil)
}

// shortest is ShortestPath with further nodes and links to avoid, given as
// slices so that Yen's spur searches need not build a map each.
func (g *Graph) shortest(src, dst NodeID, opts *PathOpts, avoid []NodeID, ban []LinkID) (Path, error) {
	s := g.s
	from, ok := s.index[src]
	if !ok {
		return Path{}, fmt.Errorf("%w: src %s", ErrNodeNotFound, src)
	}
	to, ok := s.index[dst]
	if !ok {
		return Path{}, fmt.Errorf("%w: dst %s", ErrNodeNotFound, dst)
	}
	ws := getWorkspace(s)
	defer putWorkspace(ws)
	for n, on := range opts.Avoid {
		if on {
			ws.avoidNode(s, n)
		}
	}
	for _, n := range avoid {
		ws.avoidNode(s, n)
	}
	for id, on := range opts.AvoidLinks {
		if on {
			ws.banLink(s, id)
		}
	}
	for _, id := range ban {
		ws.banLink(s, id)
	}

	ws.seen[from], ws.dist[from], ws.delay[from] = ws.epoch, 0, 0
	ws.push(from)
	for len(ws.heap) > 0 {
		u := ws.pop()
		ws.done[u] = ws.epoch
		if u == to {
			break
		}
		for _, ei := range s.out[s.outAt[u]:s.outAt[u+1]] {
			e := &s.edges[ei]
			if g.bw[ei] < opts.MinBandwidth || ws.banned[ei] == ws.epoch {
				continue
			}
			v := e.dst
			if ws.avoid[v] == ws.epoch && v != to && v != from {
				continue
			}
			if ws.done[v] == ws.epoch {
				continue
			}
			nd := ws.dist[u] + opts.Metric.weight(e)
			ndelay := ws.delay[u] + e.delay
			if opts.MaxDelay > 0 && ndelay > opts.MaxDelay {
				continue
			}
			known := ws.seen[v] == ws.epoch
			if !known || nd < ws.dist[v] || (nd == ws.dist[v] && ndelay < ws.delay[v]) {
				ws.dist[v], ws.delay[v], ws.via[v] = nd, ndelay, ei
				if known {
					ws.up(int(ws.pos[v]))
				} else {
					ws.seen[v] = ws.epoch
					ws.push(v)
				}
			}
		}
	}
	if ws.done[to] != ws.epoch {
		return Path{}, fmt.Errorf("%w: %s -> %s", ErrNoPath, src, dst)
	}

	// The heap is spent; it holds the path's edges, last first.
	trail := ws.heap[:0]
	for at := to; at != from; at = s.edges[ws.via[at]].src {
		trail = append(trail, ws.via[at])
	}
	p := Path{Nodes: make([]NodeID, 1, len(trail)+1), Weight: ws.dist[to], MinBW: math.Inf(1)}
	p.Nodes[0] = s.names[from]
	if len(trail) > 0 {
		p.Links = make([]LinkID, 0, len(trail))
	}
	// Delay is summed from src to dst: floats add up differently backwards.
	for i := len(trail) - 1; i >= 0; i-- {
		e := &s.edges[trail[i]]
		p.Nodes = append(p.Nodes, s.names[e.dst])
		p.Links = append(p.Links, e.id)
		p.Delay += e.delay
		p.MinBW = min(p.MinBW, g.bw[trail[i]])
	}
	return p, nil
}

// Paths returns the loopless paths from src to dst in non-decreasing weight
// order (Yen's algorithm); the constraints in opts apply to every path. The
// shortest is computed now and its failure is the error; each further path is
// computed only when the sequence is asked for it, on the graph as it is then.
func (g *Graph) Paths(src, dst NodeID, opts PathOpts) (iter.Seq[Path], error) {
	first, err := g.ShortestPath(src, dst, opts)
	if err != nil {
		return nil, err
	}
	return func(yield func(Path) bool) {
		if !yield(first) {
			return
		}
		paths := []Path{first}
		var candidates []candidate
		var ban []LinkID
		for {
			prev := paths[len(paths)-1]
			for i := 0; i < len(prev.Nodes)-1; i++ {
				rootNodes := prev.Nodes[:i+1]
				// Ban the links that would recreate an already-found path
				// sharing this root, and the root nodes before the spur node
				// to keep paths loopless.
				ban = ban[:0]
				for _, p := range paths {
					if len(p.Links) > i && slices.Equal(p.Nodes[:i+1], rootNodes) {
						ban = append(ban, p.Links[i])
					}
				}
				spur, err := g.shortest(prev.Nodes[i], dst, &opts, rootNodes[:i], ban)
				if err != nil {
					continue
				}
				cand := g.join(rootNodes, prev.Links[:i], spur, opts.Metric)
				if opts.MaxDelay > 0 && cand.Delay > opts.MaxDelay {
					continue
				}
				known := func(p Path) bool { return slices.Equal(p.Links, cand.Links) }
				if !slices.ContainsFunc(paths, known) &&
					!slices.ContainsFunc(candidates, func(c candidate) bool { return known(c.Path) }) {
					candidates = append(candidates, candidate{cand, fmt.Sprint(cand.Nodes)})
				}
			}
			if len(candidates) == 0 {
				return
			}
			sort.Slice(candidates, func(a, b int) bool {
				if candidates[a].Weight != candidates[b].Weight {
					return candidates[a].Weight < candidates[b].Weight
				}
				return candidates[a].order < candidates[b].order
			})
			next := candidates[0].Path
			candidates = candidates[1:]
			paths = append(paths, next)
			if !yield(next) {
				return
			}
		}
	}, nil
}

// candidate is a spur path waiting its turn; order breaks weight ties.
type candidate struct {
	Path
	order string
}

// KShortestPaths returns the first k of Paths.
func (g *Graph) KShortestPaths(src, dst NodeID, k int, opts PathOpts) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	seq, err := g.Paths(src, dst, opts)
	if err != nil {
		return nil, err
	}
	var paths []Path
	for p := range seq {
		if paths = append(paths, p); len(paths) == k {
			break
		}
	}
	return paths, nil
}

// join glues a spur path onto the root it branched from.
func (g *Graph) join(rootNodes []NodeID, rootLinks []LinkID, spur Path, m Metric) Path {
	nodes := append(append([]NodeID{}, rootNodes...), spur.Nodes[1:]...)
	links := append(append([]LinkID{}, rootLinks...), spur.Links...)
	p := Path{Nodes: nodes, Links: links, MinBW: math.Inf(1)}
	for _, lid := range links {
		e, _ := g.s.find(lid)
		p.Delay += g.s.edges[e].delay
		p.Weight += m.weight(&g.s.edges[e])
		p.MinBW = min(p.MinBW, g.bw[e])
	}
	return p
}
