package nffg_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/nffg"
)

// forkSubstrate is a sealed, populated graph: three BiS-BiS in a line with
// SAPs on both ends and in the middle, and one chain already mapped, so
// every kind of entity a fork may share is present.
func forkSubstrate(t testing.TB) *nffg.NFFG {
	t.Helper()
	res := nffg.Resources{CPU: 16, Mem: 8192, Storage: 16}
	g := nffg.NewBuilder("sub").
		BiSBiS("n1", "d", 4, res, "fw", "nat").
		BiSBiS("n2", "d", 4, res, "fw", "nat").
		BiSBiS("n3", "d", 4, res, "fw", "nat").
		SAP("sap1").SAP("sap2").SAP("sap3").
		Link("u", "sap1", "1", "n1", "1", 1000, 1).
		Link("a", "n1", "2", "n2", "1", 1000, 1).
		Link("b", "n2", "2", "n3", "1", 1000, 1).
		Link("v", "n3", "2", "sap2", "1", 1000, 1).
		Link("w", "n2", "3", "sap3", "1", 1000, 1).
		MustBuild()
	mp, err := embed.NewDefault().Map(g, forkChain("base", "sap1", "sap2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := embed.ApplyTo(g, mp); err != nil {
		t.Fatal(err)
	}
	return g.Seal()
}

func forkChain(id string, a, b nffg.ID) *nffg.NFFG {
	nf := nffg.ID(id + "-nf")
	return nffg.NewBuilder(id).SAP(a).SAP(b).
		NF(nf, "fw", 2, nffg.Resources{CPU: 1, Mem: 64, Storage: 1}).
		Chain(id, 5, 0, a, nf, b).
		MustBuild()
}

// encodeGraph is g's JSON encoding: EncodeJSON's bytes without the trailing
// newline.
func encodeGraph(t testing.TB, g *nffg.NFFG) []byte {
	t.Helper()
	b, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// forkLane runs every operation on a fork and on a deep copy of the same
// graph; the two must stay equal.
type forkLane struct {
	fork, copy *nffg.NFFG
	mappings   []*embed.Mapping
}

// forkOps is the number of opcodes runForkProgram interprets.
const forkOps = 15

// runForkProgram interprets prog as (opcode, argument) byte pairs driving two
// lanes forked from one sealed graph through every mutator. After each step
// the sealed source, every graph sealed since, and each lane's fork against
// its copy are compared by their encoding.
func runForkProgram(t *testing.T, src *nffg.NFFG, prog []byte) {
	t.Helper()
	type frozen struct {
		g   *nffg.NFFG
		enc []byte
	}
	sealed := []frozen{{src, encodeGraph(t, src)}}
	lanes := [2]*forkLane{{fork: src.Fork(), copy: src.Copy()}, {fork: src.Fork(), copy: src.Copy()}}
	infras := []nffg.ID{"n1", "n2", "n3"}
	for step := 0; step+1 < len(prog); step += 2 {
		op, arg := prog[step]%forkOps, int(prog[step+1])
		ln, other := lanes[arg&1], lanes[1-arg&1]
		k := arg >> 1
		infra := infras[k%len(infras)]
		var name string
		both := func(f func(g *nffg.NFFG) error) {
			ef, ec := f(ln.fork), f(ln.copy)
			if (ef == nil) != (ec == nil) {
				t.Fatalf("step %d %s: fork error %v, copy error %v", step/2, name, ef, ec)
			}
		}
		switch op {
		case 0:
			name = "AddNF"
			both(func(g *nffg.NFFG) error {
				return g.AddNF(&nffg.NF{ID: nffg.ID(fmt.Sprintf("x%d", k)), FunctionalType: "fw",
					Ports: []*nffg.Port{{ID: "1"}, {ID: "2"}}, Demand: nffg.Resources{CPU: 1}, Host: infra})
			})
		case 1:
			name = "RemoveNF"
			ids := ln.copy.NFIDs()
			if len(ids) > 0 {
				id := ids[k%len(ids)]
				both(func(g *nffg.NFFG) error { return g.RemoveNF(id) })
			}
		case 2:
			name = "AddHop"
			both(func(g *nffg.NFFG) error {
				return g.AddHop(&nffg.SGHop{ID: fmt.Sprintf("y%d", k), SrcNode: "sap1", SrcPort: "1", DstNode: "sap3", DstPort: "1", Bandwidth: 1})
			})
		case 3:
			name = "AddFlowrule"
			both(func(g *nffg.NFFG) error {
				return g.AddFlowrule(infra, &nffg.Flowrule{ID: fmt.Sprintf("r%d", k),
					Match:  nffg.Match{InPort: nffg.InfraPort("4"), Tag: fmt.Sprintf("t%d", k)},
					Action: nffg.Action{Output: nffg.InfraPort("3")}, HopID: fmt.Sprintf("hop%d", k%3)})
			})
		case 4:
			name = "RemoveFlowrulesByHop"
			hop := fmt.Sprintf("hop%d", k%3)
			if hops := slices.Collect(ln.copy.Hops()); k%2 == 1 && len(hops) > 0 {
				hop = hops[k%len(hops)].ID
			}
			both(func(g *nffg.NFFG) error {
				g.RemoveFlowrulesByHop(hop)
				return nil
			})
		case 5:
			name = "MutLink"
			links := slices.Collect(ln.copy.Links())
			id := links[k%len(links)].ID
			both(func(g *nffg.NFFG) error {
				g.MutLink(id).Bandwidth -= 1
				return nil
			})
		case 6:
			name = "Apply"
			// One infra per rule map: Apply ranges over them, and only a
			// single entry keeps a partial failure identical in both lanes.
			d := &nffg.Delta{
				AddNFs: []*nffg.NF{{ID: nffg.ID(fmt.Sprintf("z%d", k)), FunctionalType: "nat",
					Ports: []*nffg.Port{{ID: "1"}}, Host: infra}},
				AddRules: map[nffg.ID][]*nffg.Flowrule{infra: {{ID: fmt.Sprintf("d%d", k),
					Match:  nffg.Match{InPort: nffg.InfraPort("4"), Tag: fmt.Sprintf("d%d", k)},
					Action: nffg.Action{Output: nffg.InfraPort("1")}}}},
			}
			if ids := ln.copy.NFIDs(); len(ids) > 0 {
				d.DelNFs = []nffg.ID{ids[k%len(ids)]}
				if k%2 == 1 { // migrate an NF the graph already holds
					d.AddNFs[0].ID = ids[(k/2)%len(ids)]
				}
			}
			if rules := slices.Collect(ln.copy.Infras.Get(infra).Flowrules()); len(rules) > 0 {
				d.DelRules = map[nffg.ID][]*nffg.Flowrule{infra: {rules[k%len(rules)]}}
			}
			both(func(g *nffg.NFFG) error { return g.Apply(d) })
		case 7, 8:
			// The mapping is planned once, on the copy, so both lanes apply
			// the same one.
			mp, err := embed.NewDefault().Map(ln.copy, forkChain(fmt.Sprintf("m%d", k), "sap1", []nffg.ID{"sap2", "sap3"}[k%2]))
			if err != nil {
				continue
			}
			if op == 7 {
				name = "embed.ApplyTo"
				both(func(g *nffg.NFFG) error { return embed.ApplyTo(g, mp) })
			} else {
				name = "embed.ApplyScoped"
				ref := ln.copy.Copy()
				both(func(g *nffg.NFFG) error { return embed.ApplyScoped(g, ref, mp, k%2 == 0) })
			}
			ln.mappings = append(ln.mappings, mp)
		case 9:
			name = "embed.Release"
			if len(ln.mappings) > 0 {
				mp := ln.mappings[k%len(ln.mappings)]
				both(func(g *nffg.NFFG) error { return embed.Release(g, mp) })
			}
		case 10:
			name = "fork of an unsealed fork"
			ln.fork, ln.copy = other.fork.Fork(), other.copy.Copy()
			ln.mappings = append([]*embed.Mapping(nil), other.mappings...)
		case 11:
			name = "Seal"
			ln.fork.Seal()
			sealed = append(sealed, frozen{ln.fork, encodeGraph(t, ln.fork)})
			ln.fork = ln.fork.Fork()
		case 12:
			name = "AddReq"
			hop := "none" // a requirement over a missing hop: both lanes refuse it
			if hops := slices.Collect(ln.copy.Hops()); k%3 != 0 && len(hops) > 0 {
				hop = hops[k%len(hops)].ID
			}
			both(func(g *nffg.NFFG) error {
				return g.AddReq(&nffg.Requirement{ID: fmt.Sprintf("q%d", k), SrcNode: "sap1", DstNode: "sap3",
					HopIDs: []string{hop}, Bandwidth: 1})
			})
		case 13:
			name = "AddLink"
			both(func(g *nffg.NFFG) error {
				return g.AddLink(&nffg.Link{ID: fmt.Sprintf("z%d", k), SrcNode: infra, SrcPort: "4",
					DstNode: infras[(k+1)%len(infras)], DstPort: "4", Bandwidth: 100, Delay: 1})
			})
		case 14:
			name = "EditLinks"
			links := slices.Collect(ln.copy.Links())
			id := links[k%len(links)].ID
			both(func(g *nffg.NFFG) error {
				g.EditLinks(func(l *nffg.Link) {
					if l.ID == id {
						l.Delay++
					}
				})
				return nil
			})
		}
		for i, s := range sealed {
			if !bytes.Equal(encodeGraph(t, s.g), s.enc) {
				t.Fatalf("step %d %s: sealed graph %d changed under a fork", step/2, name, i)
			}
		}
		for i, l := range lanes {
			if f, c := encodeGraph(t, l.fork), encodeGraph(t, l.copy); !bytes.Equal(f, c) {
				t.Fatalf("step %d %s: lane %d fork differs from its copy:\nfork %s\ncopy %s", step/2, name, i, f, c)
			}
		}
	}
}

// TestForkIsolation drives forks of a sealed graph through every mutator and
// through embed's apply and release: the source never changes, and a fork
// always equals a deep copy that went through the same operations.
func TestForkIsolation(t *testing.T) {
	src := forkSubstrate(t)
	// Every opcode on both lanes, writing the same entities from both.
	var prog []byte
	for round := 0; round < 3; round++ {
		for op := byte(0); op < forkOps; op++ {
			for lane := byte(0); lane < 2; lane++ {
				prog = append(prog, op, lane|byte(round)<<1)
			}
		}
	}
	runForkProgram(t, src, prog)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		prog := make([]byte, 2*(10+rng.Intn(30)))
		rng.Read(prog)
		runForkProgram(t, src, prog)
	}
}

func FuzzForkIsolation(f *testing.F) {
	f.Add([]byte{3, 0, 3, 1, 5, 0, 5, 1, 4, 2, 6, 0, 10, 1, 3, 0, 3, 1})
	f.Add([]byte{7, 0, 7, 1, 9, 0, 11, 0, 7, 2, 8, 1, 9, 1, 1, 0})
	// Long enough to fold: six NFs and a flowrule on one lane outgrow the
	// node maps' base, so the next generation folds them into a flat map;
	// one more NF then rides an overlay of the folded map across a seal,
	// and is removed, forked unsealed, remapped and released from there.
	f.Add([]byte{0, 0, 0, 2, 0, 4, 0, 6, 0, 8, 0, 10, 3, 0, 11, 0, 0, 12, 11, 0, 1, 0,
		10, 1, 3, 1, 5, 0, 4, 0, 11, 1, 0, 3, 7, 0, 11, 0, 9, 0, 8, 1, 1, 1})
	// Long enough to share, overlay and fold both edge lists. Eight hops make
	// one lane's hop list long enough to share; two links appended and one
	// replaced outgrow the links' base, so the fork behind the seal folds
	// them. RemoveNF's hop filter then leaves tombstones in the shared hops,
	// which the next seal's fork copies as an overlay; the other lane forks
	// from there and replaces, edits and adds on overlays of its own.
	f.Add([]byte{2, 0, 2, 2, 2, 4, 2, 6, 2, 8, 2, 10, 2, 12, 2, 14, 13, 0, 13, 2, 5, 0, 11, 0,
		1, 0, 11, 0, 12, 2, 5, 2, 13, 4, 10, 1, 5, 1, 4, 3, 14, 1, 12, 3, 11, 1})
	// Long enough to share a flowtable: nine rules on n1 make its table of
	// eleven long enough to share; behind a seal, the fork appends, removes
	// a base chain's rule and applies a rule delete and add on an overlay;
	// the next seal's fork copies that overlay, and the other lane forks
	// from there and writes the table again.
	f.Add([]byte{3, 0, 3, 6, 3, 12, 3, 18, 3, 24, 3, 30, 3, 36, 3, 42, 3, 48, 11, 0, 3, 54, 4, 2, 6, 0,
		11, 0, 10, 1, 3, 61, 4, 6, 6, 1})
	src := forkSubstrate(f)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 64 {
			prog = prog[:64]
		}
		runForkProgram(t, src, prog)
	})
}
