package embed

import (
	"fmt"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
)

// The two shapes of substrate the mapper meets under load, after the rings of
// bench/topology.go: the merged view of a ring of small domains, which a
// transit chain is routed across, and one leaf of a big ring with its resident
// services on it, which a local chain is added to. What CI gates of them is
// allocs/op: the mapper's cost on a substrate it has mapped on before is
// allocation, and a count repeats where a timing does not.

var benchCapacity = nffg.Resources{CPU: 1 << 16, Mem: 1 << 26, Storage: 1 << 20}

// benchLeaf adds domain d to b: border(d-1) - n1 - n2 - n3 - border(d), with
// pairs user SAPs on n1 and as many on n3.
func benchLeaf(b *nffg.Builder, d, domains, pairs int) {
	id := fmt.Sprintf("d%02d", d)
	n := func(i int) nffg.ID { return nffg.ID(fmt.Sprintf("%s-n%d", id, i)) }
	border := func(d int) nffg.ID { return nffg.ID(fmt.Sprintf("b%02d", (d+domains)%domains)) }
	b.BiSBiS(n(1), id, pairs+2, benchCapacity, "firewall", "dpi", "nat")
	b.BiSBiS(n(2), id, 2, benchCapacity, "firewall", "dpi", "nat")
	b.BiSBiS(n(3), id, pairs+2, benchCapacity, "firewall", "dpi", "nat")
	for _, sap := range []nffg.ID{border(d - 1), border(d)} {
		if _, ok := b.Graph().SAPs[sap]; !ok {
			b.SAP(sap)
		}
	}
	b.Link(id+"-bl", border(d-1), "1", n(1), "1", 1e6, 0.5)
	b.Link(id+"-l1", n(1), "2", n(2), "1", 1e6, 0.5)
	b.Link(id+"-l2", n(2), "2", n(3), "1", 1e6, 0.5)
	b.Link(id+"-br", n(3), "2", border(d), "1", 1e6, 0.5)
	for k := 0; k < pairs; k++ {
		a, z := benchSAP(d, 'a', k), benchSAP(d, 'z', k)
		b.SAP(a).SAP(z)
		b.Link(fmt.Sprintf("%s-ua%02d", id, k), a, "1", n(1), fmt.Sprint(k+3), 1e6, 0.1)
		b.Link(fmt.Sprintf("%s-uz%02d", id, k), n(3), fmt.Sprint(k+3), z, "1", 1e6, 0.1)
	}
}

func benchSAP(d int, side rune, k int) nffg.ID {
	return nffg.ID(fmt.Sprintf("d%02d%c%02d", d, side, k))
}

func benchChain(id string, src, dst nffg.ID, nfs int) *nffg.NFFG {
	b := nffg.NewBuilder(id).SAP(src).SAP(dst)
	nodes := []nffg.ID{src}
	for i := 0; i < nfs; i++ {
		nf := nffg.ID(fmt.Sprintf("%s-nf%d", id, i))
		b.NF(nf, []string{"firewall", "dpi", "nat"}[i%3], 2, nffg.Resources{CPU: 2, Mem: 1024, Storage: 4})
		nodes = append(nodes, nf)
	}
	return b.Chain(id, 10, 0, append(nodes, dst)...).MustBuild()
}

func benchMap(b *testing.B, sub, req *nffg.NFFG) {
	m := NewDefault()
	if _, err := m.Map(sub, req); err != nil { // the first call compiles the topology
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(sub, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapTransit maps a 3-NF chain from domain 1 to domain 3 of a ring of
// 8 domains with 8 SAP pairs each.
func BenchmarkMapTransit(b *testing.B) {
	bl := nffg.NewBuilder("ring8")
	for d := 0; d < 8; d++ {
		benchLeaf(bl, d, 8, 8)
	}
	benchMap(b, bl.MustBuild().Seal(), benchChain("transit", benchSAP(1, 'a', 0), benchSAP(3, 'z', 0), 3))
}

// BenchmarkMapLocalResident maps a 2-NF chain onto one leaf of 48 SAP pairs,
// 32 of which hold a resident 2-NF service.
func BenchmarkMapLocalResident(b *testing.B) {
	bl := nffg.NewBuilder("leaf")
	benchLeaf(bl, 0, 16, 48)
	sub := bl.MustBuild()
	m := NewDefault()
	for k := 0; k < 32; k++ {
		mp, err := m.Map(sub, benchChain(fmt.Sprintf("res%02d", k), benchSAP(0, 'a', k), benchSAP(0, 'z', k), 2))
		if err == nil {
			err = ApplyTo(sub, mp)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	benchMap(b, sub.Copy().Seal(), benchChain("local", benchSAP(0, 'a', 40), benchSAP(0, 'z', 40), 2))
}
