package topo

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The oracle is the map-of-maps graph and the boxed-heap Dijkstra, Yen and
// BFS this package used before it compiled graphs, kept verbatim as the
// reference the compiled implementation must agree with result for result.

var errOracleLinkExists = errors.New("oracle: link already exists")

func oracleWeight(m Metric, l Link) float64 {
	switch m {
	case MetricHops:
		return 1
	case MetricCost:
		return l.Cost
	default:
		return l.Delay
	}
}

type oracleGraph struct {
	nodes map[NodeID]struct{}
	links map[LinkID]Link
	// out maps a node to the IDs of links leaving it.
	out map[NodeID][]LinkID
}

func newOracle() *oracleGraph {
	return &oracleGraph{
		nodes: make(map[NodeID]struct{}),
		links: make(map[LinkID]Link),
		out:   make(map[NodeID][]LinkID),
	}
}

// EnsureNode inserts a node if absent.
func (g *oracleGraph) EnsureNode(id NodeID) {
	g.nodes[id] = struct{}{}
}

// HasNode reports whether the node exists.
func (g *oracleGraph) HasNode(id NodeID) bool {
	_, ok := g.nodes[id]
	return ok
}

// AddLink inserts a directed link. Both endpoints must exist.
func (g *oracleGraph) AddLink(l Link) error {
	if _, ok := g.links[l.ID]; ok {
		return fmt.Errorf("%w: %s", errOracleLinkExists, l.ID)
	}
	if !g.HasNode(l.Src) {
		return fmt.Errorf("%w: src %s", ErrNodeNotFound, l.Src)
	}
	if !g.HasNode(l.Dst) {
		return fmt.Errorf("%w: dst %s", ErrNodeNotFound, l.Dst)
	}
	g.links[l.ID] = l
	g.out[l.Src] = insertSorted(g.out[l.Src], l.ID)
	return nil
}

// Out returns the links leaving a node, sorted by link ID.
func (g *oracleGraph) Out(id NodeID) []Link {
	ids := g.out[id]
	out := make([]Link, 0, len(ids))
	for _, lid := range ids {
		out = append(out, g.links[lid])
	}
	return out
}

// Connected reports whether dst is reachable from src following directed links.
func (g *oracleGraph) Connected(src, dst NodeID) bool {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return false
	}
	if src == dst {
		return true
	}
	seen := map[NodeID]bool{src: true}
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, l := range g.Out(n) {
			if l.Dst == dst {
				return true
			}
			if !seen[l.Dst] {
				seen[l.Dst] = true
				queue = append(queue, l.Dst)
			}
		}
	}
	return false
}

func insertSorted(s []LinkID, id LinkID) []LinkID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = id
	return s
}

type pqItem struct {
	node NodeID
	dist float64
	idx  int
}

type priorityQueue []*pqItem

func (pq priorityQueue) Len() int { return len(pq) }
func (pq priorityQueue) Less(i, j int) bool {
	if pq[i].dist != pq[j].dist {
		return pq[i].dist < pq[j].dist
	}
	return pq[i].node < pq[j].node // deterministic tie-break
}
func (pq priorityQueue) Swap(i, j int) {
	pq[i], pq[j] = pq[j], pq[i]
	pq[i].idx, pq[j].idx = i, j
}
func (pq *priorityQueue) Push(x any) {
	it := x.(*pqItem)
	it.idx = len(*pq)
	*pq = append(*pq, it)
}
func (pq *priorityQueue) Pop() any {
	old := *pq
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*pq = old[:n-1]
	return it
}

// ShortestPath runs Dijkstra from src to dst under the given constraints.
// It returns ErrNoPath when dst is unreachable under the constraints.
func (g *oracleGraph) ShortestPath(src, dst NodeID, opts PathOpts) (Path, error) {
	if !g.HasNode(src) {
		return Path{}, fmt.Errorf("%w: src %s", ErrNodeNotFound, src)
	}
	if !g.HasNode(dst) {
		return Path{}, fmt.Errorf("%w: dst %s", ErrNodeNotFound, dst)
	}
	dist := map[NodeID]float64{src: 0}
	delayTo := map[NodeID]float64{src: 0}
	prevLink := map[NodeID]LinkID{}
	prevNode := map[NodeID]NodeID{}
	items := map[NodeID]*pqItem{}
	pq := priorityQueue{}
	heap.Init(&pq)
	start := &pqItem{node: src, dist: 0}
	heap.Push(&pq, start)
	items[src] = start
	done := map[NodeID]bool{}

	for pq.Len() > 0 {
		it := heap.Pop(&pq).(*pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, l := range g.Out(u) {
			if l.Bandwidth < opts.MinBandwidth {
				continue
			}
			if opts.AvoidLinks[l.ID] {
				continue
			}
			v := l.Dst
			if opts.Avoid[v] && v != dst && v != src {
				continue
			}
			if done[v] {
				continue
			}
			nd := dist[u] + oracleWeight(opts.Metric, l)
			ndelay := delayTo[u] + l.Delay
			if opts.MaxDelay > 0 && ndelay > opts.MaxDelay {
				continue
			}
			cur, seen := dist[v]
			if !seen || nd < cur || (nd == cur && ndelay < delayTo[v]) {
				dist[v] = nd
				delayTo[v] = ndelay
				prevLink[v] = l.ID
				prevNode[v] = u
				if item, ok := items[v]; ok && item.idx >= 0 && item.idx < len(pq) && pq[item.idx] == item {
					item.dist = nd
					heap.Fix(&pq, item.idx)
				} else {
					ni := &pqItem{node: v, dist: nd}
					heap.Push(&pq, ni)
					items[v] = ni
				}
			}
		}
	}
	if _, ok := dist[dst]; !ok || !done[dst] {
		if src == dst {
			return Path{Nodes: []NodeID{src}, MinBW: math.Inf(1)}, nil
		}
		return Path{}, fmt.Errorf("%w: %s -> %s", ErrNoPath, src, dst)
	}
	return g.assemble(src, dst, dist[dst], prevNode, prevLink)
}

func (g *oracleGraph) assemble(src, dst NodeID, weight float64, prevNode map[NodeID]NodeID, prevLink map[NodeID]LinkID) (Path, error) {
	var nodes []NodeID
	var links []LinkID
	for at := dst; ; {
		nodes = append(nodes, at)
		if at == src {
			break
		}
		lid, ok := prevLink[at]
		if !ok {
			return Path{}, fmt.Errorf("%w: broken predecessor chain at %s", ErrNoPath, at)
		}
		links = append(links, lid)
		at = prevNode[at]
	}
	// Reverse in place.
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	p := Path{Nodes: nodes, Links: links, Weight: weight, MinBW: math.Inf(1)}
	for _, lid := range links {
		l := g.links[lid]
		p.Delay += l.Delay
		if l.Bandwidth < p.MinBW {
			p.MinBW = l.Bandwidth
		}
	}
	return p, nil
}

// KShortestPaths returns up to k loopless paths in non-decreasing weight
// order using Yen's algorithm. Constraints in opts apply to every path.
func (g *oracleGraph) KShortestPaths(src, dst NodeID, k int, opts PathOpts) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	first, err := g.ShortestPath(src, dst, opts)
	if err != nil {
		return nil, err
	}
	paths := []Path{first}
	var candidates []Path
	for len(paths) < k {
		prev := paths[len(paths)-1]
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spurNode := prev.Nodes[i]
			rootNodes := prev.Nodes[:i+1]
			rootLinks := prev.Links[:i]

			sub := opts
			sub.Avoid = copyNodeSet(opts.Avoid)
			sub.AvoidLinks = copyLinkSet(opts.AvoidLinks)
			// Remove links that would recreate an already-found path that
			// shares this root.
			for _, p := range paths {
				if len(p.Links) > i && equalPrefix(p.Nodes, rootNodes) {
					sub.AvoidLinks[p.Links[i]] = true
				}
			}
			// Remove root nodes other than the spur node to keep paths loopless.
			for _, n := range rootNodes[:len(rootNodes)-1] {
				sub.Avoid[n] = true
			}
			spur, err := g.ShortestPath(spurNode, dst, sub)
			if err != nil {
				continue
			}
			cand := joinPaths(g, rootNodes, rootLinks, spur, opts.Metric)
			if opts.MaxDelay > 0 && cand.Delay > opts.MaxDelay {
				continue
			}
			if !containsPath(paths, cand) && !containsPath(candidates, cand) {
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			if candidates[a].Weight != candidates[b].Weight {
				return candidates[a].Weight < candidates[b].Weight
			}
			return fmt.Sprint(candidates[a].Nodes) < fmt.Sprint(candidates[b].Nodes)
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, nil
}

func copyNodeSet(in map[NodeID]bool) map[NodeID]bool {
	out := make(map[NodeID]bool, len(in)+4)
	for k, v := range in {
		out[k] = v
	}
	return out
}

func copyLinkSet(in map[LinkID]bool) map[LinkID]bool {
	out := make(map[LinkID]bool, len(in)+4)
	for k, v := range in {
		out[k] = v
	}
	return out
}

func equalPrefix(nodes, prefix []NodeID) bool {
	if len(nodes) < len(prefix) {
		return false
	}
	for i := range prefix {
		if nodes[i] != prefix[i] {
			return false
		}
	}
	return true
}

func joinPaths(g *oracleGraph, rootNodes []NodeID, rootLinks []LinkID, spur Path, m Metric) Path {
	nodes := append(append([]NodeID{}, rootNodes...), spur.Nodes[1:]...)
	links := append(append([]LinkID{}, rootLinks...), spur.Links...)
	p := Path{Nodes: nodes, Links: links, MinBW: math.Inf(1)}
	for _, lid := range links {
		l := g.links[lid]
		p.Delay += l.Delay
		p.Weight += oracleWeight(m, l)
		if l.Bandwidth < p.MinBW {
			p.MinBW = l.Bandwidth
		}
	}
	return p
}

func containsPath(ps []Path, p Path) bool {
	for _, q := range ps {
		if len(q.Links) != len(p.Links) {
			continue
		}
		same := true
		for i := range q.Links {
			if q.Links[i] != p.Links[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// spec is a graph as a list of nodes and links: what Compile takes, and what
// the oracle is built from link by link.
type spec struct {
	nodes []NodeID
	links []Link
}

func (s *spec) node(ids ...NodeID) { s.nodes = append(s.nodes, ids...) }
func (s *spec) link(l Link)        { s.links = append(s.links, l) }

// duplex adds a bidirectional link as "<id>/fwd" and "<id>/rev".
func (s *spec) duplex(id LinkID, a, b NodeID, bandwidth, delay, cost float64) {
	s.link(Link{ID: id + "/fwd", Src: a, Dst: b, Bandwidth: bandwidth, Delay: delay, Cost: cost})
	s.link(Link{ID: id + "/rev", Src: b, Dst: a, Bandwidth: bandwidth, Delay: delay, Cost: cost})
}

// compile requires every link to be valid.
func (s *spec) compile(t testing.TB) *Graph {
	t.Helper()
	g, dropped := Compile(s.nodes, s.links)
	if dropped != 0 {
		t.Fatalf("Compile dropped %d links", dropped)
	}
	return g
}

func (s *spec) oracle() *oracleGraph {
	g := newOracle()
	for _, n := range s.nodes {
		g.EnsureNode(n)
	}
	for _, l := range s.links {
		_ = g.AddLink(l) // drops what Compile drops
	}
	return g
}

// randomSpec draws a multigraph made to provoke ties: few distinct delays
// (zero among them), parallel links, several disconnected parts, and now and
// then a repeated link ID or a dangling endpoint.
func randomSpec(rng *rand.Rand) *spec {
	s := &spec{}
	n := 2 + rng.Intn(12)
	for i := 0; i < n; i++ {
		s.node(NodeID(fmt.Sprintf("n%02d", i)))
	}
	parts := 1 + rng.Intn(5)/2 // one part in two cases of five
	pick := func(part int) NodeID {
		// Nodes i with i%parts == part form one part.
		i := part + parts*rng.Intn((n-part+parts-1)/parts)
		return s.nodes[i]
	}
	m := 2*n + rng.Intn(4*n)
	for i := 0; i < m; i++ {
		part := rng.Intn(parts)
		if part >= n {
			part = 0
		}
		l := Link{
			ID:        LinkID(fmt.Sprintf("l%03d", rng.Intn(1000))),
			Src:       pick(part),
			Dst:       pick(part),
			Bandwidth: float64((1+rng.Intn(8))%5) * 2.5,
			Delay:     float64(rng.Intn(3)),
			Cost:      float64(1 + rng.Intn(2)),
		}
		if rng.Intn(40) == 0 {
			l.Dst = "nowhere"
		}
		s.link(l)
		if rng.Intn(4) == 0 { // a parallel link of the same weight
			l.ID += "p"
			s.link(l)
		}
	}
	return s
}

func randomOpts(rng *rand.Rand, s *spec) PathOpts {
	opts := PathOpts{Metric: Metric(rng.Intn(3))}
	if rng.Intn(2) == 0 {
		opts.MinBandwidth = float64(rng.Intn(3)) * 2.5
	}
	if rng.Intn(3) == 0 {
		opts.MaxDelay = float64(1 + rng.Intn(6))
	}
	if rng.Intn(3) == 0 {
		opts.Avoid = map[NodeID]bool{"absent": true}
		for i := rng.Intn(3); i > 0; i-- {
			opts.Avoid[s.nodes[rng.Intn(len(s.nodes))]] = rng.Intn(5) > 0
		}
	}
	if rng.Intn(3) == 0 && len(s.links) > 0 {
		opts.AvoidLinks = map[LinkID]bool{"absent": true}
		for i := rng.Intn(3); i > 0; i-- {
			opts.AvoidLinks[s.links[rng.Intn(len(s.links))].ID] = rng.Intn(5) > 0
		}
	}
	return opts
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() && errors.Is(a, ErrNoPath) == errors.Is(b, ErrNoPath) &&
		errors.Is(a, ErrNodeNotFound) == errors.Is(b, ErrNodeNotFound)
}

// TestDifferentialAgainstOracle holds the compiled graph to the old
// implementation's exact answers, errors included, on seeded random cases.
func TestDifferentialAgainstOracle(t *testing.T) {
	cases := 12000
	if testing.Short() {
		cases = 2000
	}
	var routed, alternatives, unreachable int
	defer func() {
		t.Logf("%d cases: %d routed, %d with alternatives, %d unreachable", cases, routed, alternatives, unreachable)
	}()
	for seed := int64(1); seed <= int64(cases); seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomSpec(rng)
		g, _ := Compile(s.nodes, s.links)
		o := s.oracle()
		if g.NumLinks() != len(o.links) {
			t.Fatalf("seed %d: compiled %d links, oracle holds %d", seed, g.NumLinks(), len(o.links))
		}
		ends := append(append([]NodeID{"absent"}, s.nodes...), s.nodes...)
		src, dst := ends[rng.Intn(len(ends))], ends[rng.Intn(len(ends))]
		opts := randomOpts(rng, s)

		if got, want := g.Connected(src, dst), o.Connected(src, dst); got != want {
			t.Fatalf("seed %d: Connected(%s, %s) = %v, oracle %v", seed, src, dst, got, want)
		}
		got, err := g.ShortestPath(src, dst, opts)
		want, wantErr := o.ShortestPath(src, dst, opts)
		if !sameErr(err, wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: ShortestPath(%s, %s, %+v)\n got %+v, %v\nwant %+v, %v", seed, src, dst, opts, got, err, want, wantErr)
		}
		switch {
		case err == nil && len(got.Links) > 0:
			routed++
		case errors.Is(err, ErrNoPath):
			unreachable++
		}
		k := rng.Intn(5)
		gotK, err := kShortest(g, src, dst, k, opts)
		wantK, wantErr := o.KShortestPaths(src, dst, k, opts)
		if !sameErr(err, wantErr) || !reflect.DeepEqual(gotK, wantK) {
			t.Fatalf("seed %d: KShortestPaths(%s, %s, %d, %+v)\n got %+v, %v\nwant %+v, %v", seed, src, dst, k, opts, gotK, err, wantK, wantErr)
		}
		if len(gotK) > 1 {
			alternatives++
		}
		// Drawn one at a time, the sequence is the same paths in the same order.
		if seq, err := g.Paths(src, dst, opts); err == nil {
			var lazy []Path
			for p := range seq {
				if len(lazy) == k {
					break
				}
				lazy = append(lazy, p)
			}
			if !reflect.DeepEqual(lazy, wantK) {
				t.Fatalf("seed %d: Paths(%s, %s, %+v) drawn %d times\n got %+v\nwant %+v", seed, src, dst, opts, k, lazy, wantK)
			}
		}
	}
}
