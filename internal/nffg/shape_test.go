package nffg_test

// InfraTopo keeps the compiled shape of a graph and Copy hands it on. These
// tests hold that to the one thing that matters: whatever happened to a graph
// since, InfraTopo describes the graph as it is now.

import (
	"bytes"
	"fmt"
	"reflect"
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
	for id := range g.Infras {
		nodes = append(nodes, topo.NodeID(id))
	}
	for id := range g.SAPs {
		nodes = append(nodes, topo.NodeID(id))
	}
	var links []topo.Link
	for _, l := range g.Links {
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
	if len(g.SAPs) > 1 {
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

// Links, Infras and SAPs are exported fields; core.Attach renames every link
// of a copy. An edit no mutator saw must be caught by InfraTopo's own check,
// not answered from the shape the graph had before.
func TestInfraTopoCatchesDirectFieldEdits(t *testing.T) {
	edits := map[string]func(g *nffg.NFFG){
		"a link dropped":    func(g *nffg.NFFG) { g.Links = g.Links[:len(g.Links)-1] },
		"a link appended":   func(g *nffg.NFFG) { l := *g.Links[0]; l.ID = "new"; g.Links = append(g.Links, &l) },
		"links reordered":   func(g *nffg.NFFG) { g.Links[0].Bandwidth = 1; g.Links[0], g.Links[3] = g.Links[3], g.Links[0] },
		"a link renamed":    func(g *nffg.NFFG) { g.Links[2].ID += "@child" },
		"a source swapped":  func(g *nffg.NFFG) { g.Links[0].SrcNode = "a-bb2" },
		"a target swapped":  func(g *nffg.NFFG) { g.Links[0].DstNode = "a-bb3" },
		"a link reversed":   func(g *nffg.NFFG) { l := g.Links[1]; l.SrcNode, l.DstNode = l.DstNode, l.SrcNode },
		"a delay changed":   func(g *nffg.NFFG) { g.Links[0].Delay = 9 },
		"bandwidth changed": func(g *nffg.NFFG) { g.Links[0].Bandwidth = 1 },
		"a SAP deleted":     func(g *nffg.NFFG) { delete(g.SAPs, "a-s1") },
		"a SAP exchanged": func(g *nffg.NFFG) {
			delete(g.SAPs, "a-s1")
			g.SAPs["a-s9"] = &nffg.SAP{ID: "a-s9", Port: &nffg.Port{ID: "1"}}
		},
		"an infra exchanged": func(g *nffg.NFFG) {
			g.Infras["a-bb9"] = g.Infras["a-bb1"]
			delete(g.Infras, "a-bb1")
		},
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			base := ring("a", 4).Seal()
			checkTopo(t, "Build", base)
			g := base.Copy()
			edit(g)
			checkTopo(t, "the edit", g)
			checkTopo(t, "the edit, on the graph copied", base)
		})
	}
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
			for _, l := range next.Links {
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
