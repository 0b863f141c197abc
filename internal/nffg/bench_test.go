package nffg

import (
	"bytes"
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

// shardGraph builds a sealed graph shaped like a resident-laden DoV shard:
// three BiS-BiS in a line, 100 SAPs on them and 32 two-NF services placed
// and chained, 22 rules on each BiS-BiS, plus one more service committed as
// a fork of that, so that the graph is a generation on an overlay, as a
// shard's snapshot is between folds. With rules above 22, n1's flowtable is
// filled up to that many rules before the fork.
func shardGraph(rules int) *NFFG {
	g := New("shard")
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	for i := 0; i < 3; i++ {
		ports := []*Port{{ID: "in"}, {ID: "out"}}
		for k := 0; k < 34; k++ {
			ports = append(ports, &Port{ID: fmt.Sprintf("s%d", k)})
		}
		must(g.AddInfra(&Infra{ID: ID(fmt.Sprintf("n%d", i)), Type: "bisbis", Ports: ports,
			Capacity: Resources{CPU: 1 << 16, Mem: 1 << 26, Storage: 1 << 20}, Supported: []string{"fw", "nat"}}))
	}
	must(g.AddLink(&Link{ID: "n0-n1", SrcNode: "n0", SrcPort: "out", DstNode: "n1", DstPort: "in", Bandwidth: 1e6}))
	must(g.AddLink(&Link{ID: "n1-n2", SrcNode: "n1", SrcPort: "out", DstNode: "n2", DstPort: "in", Bandwidth: 1e6}))
	for k := 0; k < 100; k++ {
		sap, infra, port := ID(fmt.Sprintf("sap%03d", k)), ID(fmt.Sprintf("n%d", k%3)), fmt.Sprintf("s%d", k/3)
		must(g.AddSAP(&SAP{ID: sap}))
		must(g.AddLink(&Link{ID: string(sap) + "-up", SrcNode: sap, SrcPort: "1", DstNode: infra, DstPort: port, Bandwidth: 1e6}))
	}
	service := func(s int) {
		a, z := ID(fmt.Sprintf("sap%03d", 2*s)), ID(fmt.Sprintf("sap%03d", 2*s+1))
		prev := a
		for k := 0; k < 2; k++ {
			nf, host := ID(fmt.Sprintf("svc%02d-nf%d", s, k)), ID(fmt.Sprintf("n%d", (s+k)%3))
			must(g.AddNF(&NF{ID: nf, FunctionalType: "fw", Ports: []*Port{{ID: "1"}, {ID: "2"}}, Host: host, Status: StatusMapped}))
			must(g.AddFlowrule(host, &Flowrule{ID: string(nf), Match: Match{InPort: InfraPort("in"), Tag: string(nf)},
				Action: Action{Output: NFPort(nf, "1")}, HopID: fmt.Sprintf("svc%02d-h%d", s, k)}))
			must(g.AddHop(&SGHop{ID: fmt.Sprintf("svc%02d-h%d", s, k), SrcNode: prev, SrcPort: "1", DstNode: nf, DstPort: "1", Bandwidth: 1}))
			prev = nf
		}
		must(g.AddHop(&SGHop{ID: fmt.Sprintf("svc%02d-h2", s), SrcNode: prev, SrcPort: "2", DstNode: z, DstPort: "1", Bandwidth: 1}))
	}
	for s := 0; s < 32; s++ {
		service(s)
	}
	for k := 22; k < rules; k++ {
		must(g.AddFlowrule("n1", &Flowrule{ID: fmt.Sprintf("fill%d", k), Match: Match{InPort: InfraPort("out"), Tag: fmt.Sprint(k)},
			Action: Action{Output: InfraPort("in")}, HopID: fmt.Sprintf("fill-h%d", k)}))
	}
	g = g.Seal().Fork()
	service(32)
	return g.Seal()
}

// BenchmarkFork measures one commit's generation on a shard-shaped graph:
// fork the sealed snapshot, place one NF and add one flowrule for it on n1,
// which holds 22 rules or, as ring16's MdO BiS-BiS does, 96. The fork shares
// the node maps' base and the flowtable's and copies only their overlays
// (see Table and edgeList), so neither allocs/op nor B/op grows with the
// residents or the table.
func BenchmarkFork(b *testing.B) {
	for _, rules := range []int{22, 96} {
		g := shardGraph(rules)
		nf := &NF{ID: "new-nf", FunctionalType: "fw", Ports: []*Port{{ID: "1"}}, Host: "n1", Status: StatusMapped}
		rule := &Flowrule{ID: "new-rule", Match: Match{InPort: InfraPort("in"), Tag: "new"}, Action: Action{Output: NFPort("new-nf", "1")}}
		b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				next := g.Fork()
				if err := next.AddNF(nf); err != nil {
					b.Fatal(err)
				}
				if err := next.AddFlowrule("n1", rule); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeJSON decodes a view-sized graph (benchGraph, 1024 nodes)
// from its wire bytes through DecodeJSONBytes, the one graph decoder; no
// pool is involved, so B/op is the same at any -benchtime. The json.Decoder
// path it replaced took about twice the bytes.
func BenchmarkDecodeJSON(b *testing.B) {
	var buf bytes.Buffer
	if err := benchGraph("d0", 1024).EncodeJSON(&buf); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeJSONBytes(body); err != nil {
			b.Fatal(err)
		}
	}
}
