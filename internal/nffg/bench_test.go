package nffg

import (
	"fmt"
	"testing"
)

// benchGraph builds an n-node ring with one SAP uplink and one flowrule per
// node — the shape of a DoV shard snapshot, which Copy and Merge process on
// every read-path cache miss.
func benchGraph(prefix string, n int) *NFFG {
	g := New(prefix)
	for i := 0; i < n; i++ {
		id := ID(fmt.Sprintf("%s-n%03d", prefix, i))
		infra := &Infra{
			ID: id, Type: "bisbis", Domain: prefix,
			Ports:     []*Port{{ID: "1"}, {ID: "2"}, {ID: "3"}},
			Capacity:  Resources{CPU: 16, Mem: 16384, Storage: 128},
			Supported: []string{"firewall", "dpi"},
		}
		if err := g.AddInfra(infra); err != nil {
			panic(err)
		}
		if err := g.AddFlowrule(id, &Flowrule{
			ID: fmt.Sprintf("f%03d", i), Priority: 10,
			Match:  Match{InPort: InfraPort("1")},
			Action: Action{Output: InfraPort("2")},
		}); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n; i++ {
		src := ID(fmt.Sprintf("%s-n%03d", prefix, i))
		dst := ID(fmt.Sprintf("%s-n%03d", prefix, (i+1)%n))
		if err := g.AddLink(&Link{ID: fmt.Sprintf("%s-r%03d", prefix, i),
			SrcNode: src, SrcPort: "2", DstNode: dst, DstPort: "1", Bandwidth: 1000, Delay: 0.5}); err != nil {
			panic(err)
		}
	}
	sap := ID(prefix + "-sap")
	if err := g.AddSAP(&SAP{ID: sap}); err != nil {
		panic(err)
	}
	if err := g.AddLink(&Link{ID: prefix + "-u", SrcNode: sap, SrcPort: "1",
		DstNode: ID(fmt.Sprintf("%s-n000", prefix)), DstPort: "3", Bandwidth: 1000, Delay: 0.5}); err != nil {
		panic(err)
	}
	return g
}

// BenchmarkCopy measures the deep copy on the read-path miss: pre-sized maps
// and edge slices keep allocations proportional to node count, with no
// append-regrowth waste.
func BenchmarkCopy(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		g := benchGraph("d0", n)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = g.Copy()
			}
		})
	}
}

// BenchmarkMerge measures folding k shard views into one cut (the all-shard
// merge behind the DoV read path), with pre-grown edge slices. Unsealed views
// are deep-copied; sealed ones, the shard snapshots a DoV cut merges, are
// shared, so only the cut's maps and edge slices allocate.
func BenchmarkMerge(b *testing.B) {
	for _, c := range []struct {
		shards int
		sealed bool
	}{{4, false}, {16, false}, {16, true}} {
		views := make([]*NFFG, c.shards)
		for i := range views {
			views[i] = benchGraph(fmt.Sprintf("d%d", i), 16)
			if c.sealed {
				views[i].Seal()
			}
		}
		name := fmt.Sprintf("shards=%d", c.shards)
		if c.sealed {
			name = "sealed/" + name
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := New("dov")
				for _, v := range views {
					if err := m.Merge(v); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
