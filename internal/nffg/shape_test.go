package nffg_test

// InfraTopo keeps the compiled shape of a graph and Copy hands it on. These
// tests hold that to the one thing that matters: whatever happened to a graph
// since, InfraTopo describes the graph as it is now.

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/topo"
)

// ring builds n BiS-BiS nodes in a ring, one user SAP on each.
func ring(id string, n int) *nffg.NFFG {
	b := nffg.NewBuilder(id)
	node := func(i int) nffg.ID { return nffg.ID(fmt.Sprintf("%s-bb%d", id, i%n)) }
	for i := 0; i < n; i++ {
		b.BiSBiS(node(i), id, 4, nffg.Resources{CPU: 64, Mem: 1 << 16, Storage: 256}, "fw", "nat")
	}
	for i := 0; i < n; i++ {
		sap := nffg.ID(fmt.Sprintf("%s-s%d", id, i))
		b.SAP(sap)
		b.Link(fmt.Sprintf("r%d", i), node(i), "2", node(i+1), "1", 1000, 0.5)
		b.Link(fmt.Sprintf("u%d", i), sap, "1", node(i), "3", 1000, 0.1)
	}
	return b.MustBuild()
}

func chain(id string, from, to nffg.ID) *nffg.NFFG {
	return nffg.NewBuilder(id).SAP(from).SAP(to).
		NF(nffg.ID(id+"-fw"), "fw", 2, nffg.Resources{CPU: 1, Mem: 64, Storage: 1}).
		Chain(id, 10, 0, from, nffg.ID(id+"-fw"), to).MustBuild()
}

// checkTopo compares g.InfraTopo() with a graph compiled from g's fields here
// and now, which has no way to be stale.
func checkTopo(t *testing.T, after string, g *nffg.NFFG) {
	t.Helper()
	var nodes []topo.NodeID
	for id := range g.Infras.All() {
		nodes = append(nodes, topo.NodeID(id))
	}
	for id := range g.SAPs.All() {
		nodes = append(nodes, topo.NodeID(id))
	}
	var links []topo.Link
	for l := range g.Links() {
		links = append(links, topo.Link{ID: topo.LinkID(l.ID), Src: topo.NodeID(l.SrcNode), Dst: topo.NodeID(l.DstNode),
			Bandwidth: l.Bandwidth, Delay: l.Delay, Cost: 1})
	}
	want, _ := topo.Compile(nodes, links)
	got := g.InfraTopo()
	if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
		t.Fatalf("after %s: nodes\n got %v\nwant %v", after, got.Nodes(), want.Nodes())
	}
	if !reflect.DeepEqual(got.Links(), want.Links()) {
		t.Fatalf("after %s: links\n got %v\nwant %v", after, got.Links(), want.Links())
	}
	if g.SAPs.Len() > 1 {
		ids := g.SAPIDs()
		src, dst := topo.NodeID(ids[0]), topo.NodeID(ids[len(ids)-1])
		p, err := got.ShortestPath(src, dst, topo.PathOpts{})
		wantP, wantErr := want.ShortestPath(src, dst, topo.PathOpts{})
		if !reflect.DeepEqual(p, wantP) || (err == nil) != (wantErr == nil) {
			t.Fatalf("after %s: path %v (%v), want %v (%v)", after, p, err, wantP, wantErr)
		}
	}
}

func TestInfraTopoFollowsEveryMutation(t *testing.T) {
	g := ring("a", 4)
	checkTopo(t, "Build", g)
	checkTopo(t, "a second call", g)

	if err := g.AddInfra(&nffg.Infra{ID: "extra", Type: "bisbis", Ports: []*nffg.Port{{ID: "1"}, {ID: "2"}}}); err != nil {
		t.Fatal(err)
	}
	checkTopo(t, "AddInfra", g)
	if err := g.AddSAP(&nffg.SAP{ID: "sx"}); err != nil {
		t.Fatal(err)
	}
	checkTopo(t, "AddSAP", g)
	if err := g.AddLink(&nffg.Link{ID: "ux", SrcNode: "sx", SrcPort: "1", DstNode: "extra", DstPort: "1", Bandwidth: 5, Delay: 1}); err != nil {
		t.Fatal(err)
	}
	checkTopo(t, "AddLink", g)
	if err := g.AddDuplexLink("x", "extra", "2", "a-bb0", "4", 7, 2); err != nil {
		t.Fatal(err)
	}
	checkTopo(t, "AddDuplexLink", g)

	other := ring("b", 3)
	checkTopo(t, "Build", other) // other carries a shape of its own into the merge
	if err := g.Merge(other); err != nil {
		t.Fatal(err)
	}
	checkTopo(t, "Merge", g)

	var wire bytes.Buffer
	if err := g.EncodeJSON(&wire); err != nil {
		t.Fatal(err)
	}
	decoded, err := nffg.DecodeJSON(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	checkTopo(t, "DecodeJSON", decoded)
	if err := g.UnmarshalJSON(mustJSON(t, other)); err != nil { // decoding over a graph that has a shape
		t.Fatal(err)
	}
	checkTopo(t, "UnmarshalJSON", g)

	// The commit path: every next snapshot is a Copy that ApplyTo or Release
	// then changes, and only in its links' bandwidth.
	snap := decoded.Seal()
	checkTopo(t, "Seal", snap)
	mp, err := embed.NewDefault().Map(snap, chain("svc", "a-s0", "a-s2"))
	if err != nil {
		t.Fatal(err)
	}
	next := snap.Copy()
	checkTopo(t, "Copy", next)
	if err := embed.ApplyTo(next, mp); err != nil {
		t.Fatal(err)
	}
	checkTopo(t, "Copy+ApplyTo", next)
	checkTopo(t, "Copy+ApplyTo, on the snapshot copied", snap)
	released := next.Seal().Copy()
	if err := embed.Release(released, mp); err != nil {
		t.Fatal(err)
	}
	checkTopo(t, "Copy+Release", released)
}

func mustJSON(t *testing.T, g *nffg.NFFG) []byte {
	t.Helper()
	b, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// EditLinks writes any field of a link (core.Attach renames every link of a
// copy), and AdoptShape hands a graph a shape compiled from another one. An
// edit must either drop the shape or be caught by the check that meets it,
// not be answered from the shape the graph had before.
func TestInfraTopoCatchesDirectFieldEdits(t *testing.T) {
	// editLink edits g's link i through EditLinks.
	editLink := func(g *nffg.NFFG, i int, edit func(l *nffg.Link)) {
		id := slices.Collect(g.Links())[i].ID
		g.EditLinks(func(l *nffg.Link) {
			if l.ID == id {
				edit(l)
			}
		})
	}
	// rebuilt is g with links instead of its own, built afresh and handed
	// g's shape, as a DoV cut merged again is handed the replaced cut's.
	rebuilt := func(g *nffg.NFFG, links []*nffg.Link) *nffg.NFFG {
		r := nffg.New(g.ID)
		for _, i := range g.Infras.All() {
			if err := r.AddInfra(i); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range g.SAPs.All() {
			if err := r.AddSAP(s); err != nil {
				t.Fatal(err)
			}
		}
		for _, l := range links {
			cl := *l
			if err := r.AddLink(&cl); err != nil {
				t.Fatal(err)
			}
		}
		r.AdoptShape(g)
		return r
	}
	edits := map[string]func(g *nffg.NFFG) *nffg.NFFG{
		"a link dropped": func(g *nffg.NFFG) *nffg.NFFG {
			links := slices.Collect(g.Links())
			return rebuilt(g, links[:len(links)-1])
		},
		"a link appended": func(g *nffg.NFFG) *nffg.NFFG {
			l := *slices.Collect(g.Links())[0]
			l.ID = "new"
			if err := g.AddLink(&l); err != nil {
				t.Fatal(err)
			}
			return g
		},
		"links reordered": func(g *nffg.NFFG) *nffg.NFFG {
			g.MutLink(slices.Collect(g.Links())[0].ID).Bandwidth = 1
			links := slices.Collect(g.Links())
			links[0], links[3] = links[3], links[0]
			return rebuilt(g, links)
		},
		"a link renamed": func(g *nffg.NFFG) *nffg.NFFG {
			editLink(g, 2, func(l *nffg.Link) { l.ID += "@child" })
			return g
		},
		"a source swapped": func(g *nffg.NFFG) *nffg.NFFG {
			editLink(g, 0, func(l *nffg.Link) { l.SrcNode = "a-bb2" })
			return g
		},
		"a target swapped": func(g *nffg.NFFG) *nffg.NFFG {
			editLink(g, 0, func(l *nffg.Link) { l.DstNode = "a-bb3" })
			return g
		},
		"a link reversed": func(g *nffg.NFFG) *nffg.NFFG {
			editLink(g, 1, func(l *nffg.Link) { l.SrcNode, l.DstNode = l.DstNode, l.SrcNode })
			return g
		},
		"a delay changed": func(g *nffg.NFFG) *nffg.NFFG {
			editLink(g, 0, func(l *nffg.Link) { l.Delay = 9 })
			return g
		},
		"bandwidth changed": func(g *nffg.NFFG) *nffg.NFFG {
			g.MutLink(slices.Collect(g.Links())[0].ID).Bandwidth = 1
			return g
		},
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			base := ring("a", 4).Seal()
			checkTopo(t, "Build", base)
			g := edit(base.Copy())
			checkTopo(t, "the edit", g)
			checkTopo(t, "the edit, on the graph copied", base)
		})
	}
}

// A DoV cut merged again after a commit adopts the shape of the cut it
// replaces: it then pays no compile, and a shape that no longer fits — a
// shard gained a node — is recompiled, not trusted.
func TestAdoptShapeOfAReplacedCut(t *testing.T) {
	merge := func(parts ...*nffg.NFFG) *nffg.NFFG {
		m := nffg.New("cut")
		for _, p := range parts {
			if err := m.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	a, b := ring("a", 4), ring("b", 3)
	prev := merge(a, b)
	checkTopo(t, "Merge", prev) // compiles and keeps prev's shape

	next := merge(a, b)
	for l := range next.Links() {
		l.Bandwidth /= 2 // a commit moves reservations only
	}
	next.AdoptShape(prev)
	if n := testing.AllocsPerRun(10, func() { next.InfraTopo() }); n > 2 {
		t.Errorf("InfraTopo on a cut that adopted a fitting shape: %v allocations, want at most 2", n)
	}
	checkTopo(t, "AdoptShape", next)

	if err := a.AddSAP(&nffg.SAP{ID: "late"}); err != nil {
		t.Fatal(err)
	}
	grown := merge(a, b)
	grown.AdoptShape(prev)
	checkTopo(t, "AdoptShape of a stale shape", grown)
	grown.AdoptShape(nil)
	checkTopo(t, "AdoptShape(nil)", grown)
}

// One sealed snapshot is mapped on by many goroutines at once while the
// commit path copies it and changes the copy.
func TestInfraTopoOnASharedSnapshot(t *testing.T) {
	snap := ring("a", 6).Seal() // no shape yet: the readers race to publish one
	want, err := snap.Copy().InfraTopo().ShortestPath("a-s0", "a-s3", topo.PathOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p, err := snap.InfraTopo().ShortestPath("a-s0", "a-s3", topo.PathOpts{MinBandwidth: 1000})
				if err != nil || !reflect.DeepEqual(p, want) {
					t.Errorf("reader: %v (%v), want %v", p, err, want)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			next := snap.Copy()
			for l := range next.Links() {
				l.Bandwidth = 1
			}
			if i%2 == 0 {
				if err := next.AddSAP(&nffg.SAP{ID: "late"}); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := next.InfraTopo().ShortestPath("a-s0", "a-s3", topo.PathOpts{MinBandwidth: 1000}); err == nil {
				t.Error("the copy's bandwidth should leave no path")
				return
			}
		}
	}()
	wg.Wait()
}
