package topo

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustAdd(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func lineGraph(t *testing.T, n int) *Graph {
	t.Helper()
	s := &spec{}
	for i := 0; i < n; i++ {
		s.node(NodeID(string(rune('a' + i))))
	}
	for i := 0; i < n-1; i++ {
		s.duplex(LinkID("l"+string(rune('0'+i))), s.nodes[i], s.nodes[i+1], 100, 1, 1)
	}
	return s.compile(t)
}

func TestCompileDropsInvalidLinks(t *testing.T) {
	nodes := []NodeID{"b", "a", "a"}
	links := []Link{
		{ID: "l1", Src: "a", Dst: "missing", Bandwidth: 1},
		{ID: "l1", Src: "a", Dst: "b", Bandwidth: 2}, // the first l1 never made it in
		{ID: "l2", Src: "missing", Dst: "a", Bandwidth: 3},
		{ID: "l1", Src: "b", Dst: "a", Bandwidth: 4}, // l1 is taken
		{ID: "l0", Src: "b", Dst: "a", Bandwidth: 5},
	}
	g, dropped := Compile(nodes, links)
	if dropped != 3 {
		t.Fatalf("want 3 links dropped, got %d", dropped)
	}
	if g.NumNodes() != 2 {
		t.Fatalf("want the repeated node once, got %d nodes", g.NumNodes())
	}
	want := []Link{{ID: "l0", Src: "b", Dst: "a", Bandwidth: 5}, {ID: "l1", Src: "a", Dst: "b", Bandwidth: 2}}
	if got := g.Links(); !reflect.DeepEqual(got, want) {
		t.Fatalf("links: got %+v, want %+v", got, want)
	}
	if g, dropped := Compile(nodes, want); dropped != 0 || g.Structure().LinkAt(1) != (Link{ID: "l1", Src: "a", Dst: "b"}) {
		t.Fatalf("clean compile: dropped %d, link 1 %+v", dropped, g.Structure().LinkAt(1))
	}
}

func bandwidth(t *testing.T, g *Graph, id LinkID) float64 {
	t.Helper()
	for _, l := range g.Links() {
		if l.ID == id {
			return l.Bandwidth
		}
	}
	t.Fatalf("no link %s", id)
	return 0
}

func TestReserveRestore(t *testing.T) {
	s := lineGraph(t, 3).Structure()
	g := s.Graph([]float64{1, 1, 1, 1})
	p, err := g.ShortestPath("a", "c", PathOpts{})
	mustAdd(t, err)
	full, a, b := 1.0, 0.1, 0.2 // variables: constant arithmetic would be exact
	saved, err := g.Reserve(p.Links, a, nil)
	mustAdd(t, err)
	saved, err = g.Reserve(p.Links, b, saved)
	mustAdd(t, err)
	if got := bandwidth(t, g, "l1/fwd"); got != full-a-b || got+b+a == full {
		t.Fatalf("want both reservations taken and not exactly undone by adding them back, got %v", got)
	}
	// The second link short: nothing is taken from the first, nothing is saved.
	second, err := g.ShortestPath("b", "c", PathOpts{})
	mustAdd(t, err)
	_, err = g.Reserve(second.Links, 0.5, nil)
	mustAdd(t, err)
	before := bandwidth(t, g, "l0/fwd")
	if out, err := g.Reserve(p.Links, 0.25, saved); err == nil || len(out) != len(saved) {
		t.Fatalf("over-allocation should fail and save nothing: %v, %d saved", err, len(out))
	}
	if got := bandwidth(t, g, "l0/fwd"); got != before {
		t.Fatalf("a failed reservation took %g from the first link", before-got)
	}
	if _, err := g.Reserve([]LinkID{"nope"}, 1, nil); !errors.Is(err, ErrLinkNotFound) {
		t.Fatalf("want ErrLinkNotFound, got %v", err)
	}
	// Restoring newest first gives back the values themselves.
	g.Restore(p.Links, saved[2:])
	g.Restore(p.Links, saved[:2])
	if got := bandwidth(t, g, "l0/fwd"); got != full {
		t.Fatalf("restore should be exact, got %v", got)
	}
}

func TestGraphsShareStructureNotBandwidth(t *testing.T) {
	g := lineGraph(t, 3)
	s := g.Structure()
	bw := make([]float64, s.NumLinks())
	for i := range bw {
		bw[i] = 7
	}
	h := s.Graph(bw)
	p, err := h.ShortestPath("a", "c", PathOpts{})
	mustAdd(t, err)
	if p.MinBW != 7 {
		t.Fatalf("want the second graph's own bandwidth, got %g", p.MinBW)
	}
	_, err = h.Reserve(p.Links, 7, nil)
	mustAdd(t, err)
	if got := bandwidth(t, g, "l0/fwd"); got != 100 {
		t.Fatalf("reservation leaked into the graph sharing the structure: %g", got)
	}
	if !reflect.DeepEqual(g.Nodes(), h.Nodes()) || g.NumLinks() != h.NumLinks() {
		t.Fatal("graphs of one structure differ in shape")
	}
}

func TestNodesLinksSorted(t *testing.T) {
	s := &spec{}
	s.node("z", "a", "m")
	s.link(Link{ID: "z", Src: "a", Dst: "m"})
	s.link(Link{ID: "a", Src: "a", Dst: "z"})
	g := s.compile(t)
	nodes := g.Nodes()
	if nodes[0] != "a" || nodes[1] != "m" || nodes[2] != "z" {
		t.Fatalf("nodes not sorted: %v", nodes)
	}
	links := g.Links()
	if links[0].ID != "a" || links[1].ID != "z" {
		t.Fatalf("links not sorted: %v", links)
	}
	if first := g.Structure().LinkAt(0); first.ID != "z" {
		t.Fatalf("the structure should keep the order it was given, got %v first", first.ID)
	}
}

func TestComponents(t *testing.T) {
	s := &spec{}
	s.node("a", "b", "c", "d", "e")
	s.link(Link{ID: "ab", Src: "a", Dst: "b"})
	s.link(Link{ID: "cd", Src: "d", Dst: "c"}) // direction must not matter
	comps := s.compile(t).Components()
	want := [][]NodeID{{"a", "b"}, {"c", "d"}, {"e"}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("components: got %v, want %v", comps, want)
	}
}

func TestConnected(t *testing.T) {
	s := &spec{}
	s.node("a", "b", "c")
	s.link(Link{ID: "ab", Src: "a", Dst: "b"})
	g := s.compile(t)
	if !g.Connected("a", "b") {
		t.Fatal("a->b should be connected")
	}
	if g.Connected("b", "a") {
		t.Fatal("b->a should not be connected (directed)")
	}
	if g.Connected("a", "c") {
		t.Fatal("a->c should not be connected")
	}
	if !g.Connected("a", "a") {
		t.Fatal("a->a trivially connected")
	}
	if g.Connected("a", "missing") {
		t.Fatal("missing node should not be connected")
	}
}

// Property: for random graphs, the components partition the node set, come
// sorted, and agree with the oracle's reachability.
func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &spec{}
		n := 2 + rng.Intn(20)
		for i := 0; i < n; i++ {
			s.node(NodeID(string(rune('A' + i))))
		}
		for i, m := 0, rng.Intn(3*n); i < m; i++ {
			s.link(Link{ID: LinkID(fmt.Sprint("l", i)), Src: s.nodes[rng.Intn(n)], Dst: s.nodes[rng.Intn(n)]})
		}
		g := s.compile(t)
		seen := map[NodeID]int{}
		var prev NodeID
		for ci, comp := range g.Components() {
			if comp[0] <= prev {
				return false
			}
			prev = comp[0]
			for i, nd := range comp {
				if _, dup := seen[nd]; dup || (i > 0 && nd <= comp[i-1]) {
					return false
				}
				seen[nd] = ci
			}
		}
		for _, l := range s.links {
			if seen[l.Src] != seen[l.Dst] {
				return false
			}
		}
		return len(seen) == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The searches allocate what they return and nothing else.
func TestSearchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned in plain builds only")
	}
	g := randomConnectedGraph(rand.New(rand.NewSource(1)), 64)
	nodes := g.Nodes()
	src, dst := nodes[0], nodes[len(nodes)-1]
	opts := PathOpts{MinBandwidth: 1, Avoid: map[NodeID]bool{src: true, "elsewhere": true}}
	if _, err := g.ShortestPath(src, dst, opts); err != nil { // warms the workspace pool
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = g.ShortestPath(src, dst, opts) }); n > 3 {
		t.Errorf("warm ShortestPath: %v allocations, want at most the path's 3", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = g.Connected(src, dst) }); n > 0 {
		t.Errorf("warm Connected: %v allocations, want 0", n)
	}
}
