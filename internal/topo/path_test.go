package topo

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// diamond builds:
//
//	    b
//	  /   \
//	a       d --- e
//	  \   /
//	    c
//
// a-b-d is fast but thin, a-c-d is slow but fat.
func diamond(t *testing.T) *Graph {
	t.Helper()
	s := &spec{}
	s.node("a", "b", "c", "d", "e")
	s.duplex("ab", "a", "b", 10, 1, 1)
	s.duplex("bd", "b", "d", 10, 1, 1)
	s.duplex("ac", "a", "c", 100, 5, 1)
	s.duplex("cd", "c", "d", 100, 5, 1)
	s.duplex("de", "d", "e", 100, 1, 1)
	return s.compile(t)
}

func TestShortestPathDelayMetric(t *testing.T) {
	g := diamond(t)
	p, err := g.ShortestPath("a", "d", PathOpts{})
	mustAdd(t, err)
	want := []NodeID{"a", "b", "d"}
	if fmt.Sprint(p.Nodes) != fmt.Sprint(want) {
		t.Fatalf("want %v, got %v", want, p.Nodes)
	}
	if p.Delay != 2 || p.Weight != 2 {
		t.Fatalf("want delay 2, got delay=%g weight=%g", p.Delay, p.Weight)
	}
	if p.MinBW != 10 {
		t.Fatalf("want bottleneck 10, got %g", p.MinBW)
	}
}

func TestShortestPathBandwidthConstraint(t *testing.T) {
	g := diamond(t)
	p, err := g.ShortestPath("a", "d", PathOpts{MinBandwidth: 50})
	mustAdd(t, err)
	want := []NodeID{"a", "c", "d"}
	if fmt.Sprint(p.Nodes) != fmt.Sprint(want) {
		t.Fatalf("want fat path %v, got %v", want, p.Nodes)
	}
	if p.MinBW != 100 {
		t.Fatalf("want bottleneck 100, got %g", p.MinBW)
	}
}

func TestShortestPathMaxDelay(t *testing.T) {
	g := diamond(t)
	// Fat path has delay 10; cap at 5 forces thin path, cap at 1 fails all.
	if _, err := g.ShortestPath("a", "d", PathOpts{MinBandwidth: 50, MaxDelay: 5}); !errors.Is(err, ErrNoPath) {
		t.Fatalf("want ErrNoPath, got %v", err)
	}
	p, err := g.ShortestPath("a", "d", PathOpts{MaxDelay: 5})
	mustAdd(t, err)
	if p.Delay > 5 {
		t.Fatalf("delay bound violated: %g", p.Delay)
	}
}

func TestShortestPathAvoid(t *testing.T) {
	g := diamond(t)
	p, err := g.ShortestPath("a", "d", PathOpts{Avoid: map[NodeID]bool{"b": true}})
	mustAdd(t, err)
	for _, n := range p.Nodes {
		if n == "b" {
			t.Fatalf("avoided node on path: %v", p.Nodes)
		}
	}
	p, err = g.ShortestPath("a", "d", PathOpts{AvoidLinks: map[LinkID]bool{"ab/fwd": true}})
	mustAdd(t, err)
	if p.Nodes[1] == "b" {
		t.Fatalf("avoided link used: %v", p.Nodes)
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := diamond(t)
	p, err := g.ShortestPath("a", "a", PathOpts{})
	mustAdd(t, err)
	if len(p.Nodes) != 1 || len(p.Links) != 0 {
		t.Fatalf("self path should be trivial: %v", p)
	}
}

func TestShortestPathUnknownNodes(t *testing.T) {
	g := diamond(t)
	if _, err := g.ShortestPath("zz", "a", PathOpts{}); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("want ErrNodeNotFound, got %v", err)
	}
	if _, err := g.ShortestPath("a", "zz", PathOpts{}); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("want ErrNodeNotFound, got %v", err)
	}
}

func TestShortestPathHopsMetric(t *testing.T) {
	s := &spec{}
	s.node("a", "b", "c", "d")
	// Direct link with huge delay vs two-hop with tiny delay.
	s.link(Link{ID: "ad", Src: "a", Dst: "d", Bandwidth: 10, Delay: 100})
	s.link(Link{ID: "ab", Src: "a", Dst: "b", Bandwidth: 10, Delay: 1})
	s.link(Link{ID: "bd", Src: "b", Dst: "d", Bandwidth: 10, Delay: 1})
	g := s.compile(t)
	p, err := g.ShortestPath("a", "d", PathOpts{Metric: MetricHops})
	mustAdd(t, err)
	if p.Hops() != 1 {
		t.Fatalf("hops metric should pick direct link, got %v", p.Nodes)
	}
	p, err = g.ShortestPath("a", "d", PathOpts{Metric: MetricDelay})
	mustAdd(t, err)
	if p.Hops() != 2 {
		t.Fatalf("delay metric should pick two-hop, got %v", p.Nodes)
	}
}

func TestShortestPathCostMetric(t *testing.T) {
	s := &spec{}
	s.node("a", "b", "c")
	s.link(Link{ID: "ac", Src: "a", Dst: "c", Delay: 1, Cost: 10})
	s.link(Link{ID: "ab", Src: "a", Dst: "b", Delay: 5, Cost: 1})
	s.link(Link{ID: "bc", Src: "b", Dst: "c", Delay: 5, Cost: 1})
	g := s.compile(t)
	p, err := g.ShortestPath("a", "c", PathOpts{Metric: MetricCost})
	mustAdd(t, err)
	if p.Hops() != 2 || p.Weight != 2 {
		t.Fatalf("cost metric should route via b, got %v w=%g", p.Nodes, p.Weight)
	}
}

// kShortest returns the first k paths of g.Paths.
func kShortest(g *Graph, src, dst NodeID, k int, opts PathOpts) ([]Path, error) {
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

func TestKShortestPaths(t *testing.T) {
	g := diamond(t)
	ps, err := kShortest(g, "a", "d", 3, PathOpts{})
	mustAdd(t, err)
	if len(ps) < 2 {
		t.Fatalf("want at least 2 paths, got %d", len(ps))
	}
	if ps[0].Weight > ps[1].Weight {
		t.Fatalf("paths not ordered: %g > %g", ps[0].Weight, ps[1].Weight)
	}
	// First must be the thin fast path, second the fat slow one.
	if fmt.Sprint(ps[0].Nodes) != fmt.Sprint([]NodeID{"a", "b", "d"}) {
		t.Fatalf("unexpected first path %v", ps[0].Nodes)
	}
	if fmt.Sprint(ps[1].Nodes) != fmt.Sprint([]NodeID{"a", "c", "d"}) {
		t.Fatalf("unexpected second path %v", ps[1].Nodes)
	}
	// All paths must be loopless.
	for _, p := range ps {
		seen := map[NodeID]bool{}
		for _, n := range p.Nodes {
			if seen[n] {
				t.Fatalf("loop in path %v", p.Nodes)
			}
			seen[n] = true
		}
	}
}

func TestKShortestPathsRespectsK(t *testing.T) {
	g := diamond(t)
	ps, err := kShortest(g, "a", "d", 1, PathOpts{})
	mustAdd(t, err)
	if len(ps) != 1 {
		t.Fatalf("want exactly 1 path, got %d", len(ps))
	}
	if ps, _ := kShortest(g, "a", "d", 0, PathOpts{}); ps != nil {
		t.Fatalf("k=0 should yield nil, got %v", ps)
	}
}

func TestKShortestNoPath(t *testing.T) {
	g, _ := Compile([]NodeID{"a", "b"}, nil)
	if _, err := kShortest(g, "a", "b", 2, PathOpts{}); !errors.Is(err, ErrNoPath) {
		t.Fatalf("want ErrNoPath, got %v", err)
	}
}

func randomConnectedGraph(rng *rand.Rand, n int) *Graph {
	s := &spec{}
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("n%02d", i))
	}
	s.node(ids...)
	// Spanning chain guarantees connectivity, then random extra links.
	for i := 0; i < n-1; i++ {
		s.duplex(LinkID(fmt.Sprintf("c%02d", i)), ids[i], ids[i+1],
			1+rng.Float64()*99, 1+rng.Float64()*9, 1)
	}
	extra := rng.Intn(2 * n)
	for i := 0; i < extra; i++ {
		a, b := ids[rng.Intn(n)], ids[rng.Intn(n)]
		if a == b {
			continue
		}
		s.duplex(LinkID(fmt.Sprintf("x%02d", i)), a, b,
			1+rng.Float64()*99, 1+rng.Float64()*9, 1)
	}
	g, _ := Compile(s.nodes, s.links)
	return g
}

// Property: Dijkstra distance respects the triangle inequality through any
// intermediate node, and reported Delay/MinBW match the links on the path.
func TestShortestPathProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		g := randomConnectedGraph(rng, n)
		nodes := g.Nodes()
		src := nodes[rng.Intn(len(nodes))]
		dst := nodes[rng.Intn(len(nodes))]
		p, err := g.ShortestPath(src, dst, PathOpts{})
		if err != nil {
			return false // connected graph: must always succeed
		}
		links := map[LinkID]Link{}
		for _, l := range g.Links() {
			links[l.ID] = l
		}
		// Recompute metrics from links.
		var delay, minbw float64
		minbw = 1 << 30
		for _, lid := range p.Links {
			l, ok := links[lid]
			if !ok {
				return false
			}
			delay += l.Delay
			if l.Bandwidth < minbw {
				minbw = l.Bandwidth
			}
		}
		if len(p.Links) > 0 && (abs(delay-p.Delay) > 1e-9 || abs(minbw-p.MinBW) > 1e-9) {
			return false
		}
		// Path links must be consecutive.
		for i, lid := range p.Links {
			l := links[lid]
			if l.Src != p.Nodes[i] || l.Dst != p.Nodes[i+1] {
				return false
			}
		}
		// Triangle inequality via random midpoint.
		mid := nodes[rng.Intn(len(nodes))]
		p1, err1 := g.ShortestPath(src, mid, PathOpts{})
		p2, err2 := g.ShortestPath(mid, dst, PathOpts{})
		if err1 == nil && err2 == nil {
			if p.Weight > p1.Weight+p2.Weight+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the first k paths have non-decreasing weights and loopless paths.
func TestKShortestProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		g := randomConnectedGraph(rng, n)
		nodes := g.Nodes()
		src := nodes[rng.Intn(len(nodes))]
		dst := nodes[rng.Intn(len(nodes))]
		if src == dst {
			return true
		}
		ps, err := kShortest(g, src, dst, 4, PathOpts{})
		if err != nil {
			return false
		}
		for i := 1; i < len(ps); i++ {
			if ps[i].Weight+1e-9 < ps[i-1].Weight {
				return false
			}
		}
		for _, p := range ps {
			seen := map[NodeID]bool{}
			for _, nd := range p.Nodes {
				if seen[nd] {
					return false
				}
				seen[nd] = true
			}
			if p.Nodes[0] != src || p.Nodes[len(p.Nodes)-1] != dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestPathJSONRoundtrip(t *testing.T) {
	cases := []Path{
		{}, // zero value: MinBW 0, not Inf
		{Nodes: []NodeID{"a"}, MinBW: math.Inf(1)}, // link-less: unconstrained bottleneck
		{Nodes: []NodeID{"a", "b"}, Links: []LinkID{"l1"}, Weight: 2.5, Delay: 1.25, MinBW: 100},
	}
	for i, p := range cases {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		var got Path
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("case %d: unmarshal %s: %v", i, data, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("case %d: roundtrip %s: got %+v, want %+v", i, data, got, p)
		}
	}
}
