package escape

// Benchmark harness, one family per experiment (the root package's
// bench_*_test.go files):
//
//	E1  BenchmarkE1ViewComputation, BenchmarkE1DomainAggregation
//	E2  BenchmarkE2ChainDeployment, BenchmarkE2MapperVsBaselines,
//	    BenchmarkE2BacktrackAblation
//	E3  BenchmarkE3RecursionDepth
//	E4  BenchmarkE4Decomposition
//	E5  BenchmarkE5Netconf, BenchmarkE5OpenFlow, BenchmarkE5UNFastPath
//	E6  BenchmarkE6ParallelInstall, BenchmarkE6FanOut
//	E7  BenchmarkE7BatchedAdmission, BenchmarkE7BatchMapping
//	E8  BenchmarkE8ShardedCommit
//	E9  BenchmarkE9ReadPath, BenchmarkE9GlobalNarrowing
//	E10 BenchmarkE10FairAdmission
//	E11 BenchmarkE11SouthboundPipeline
//	E12 BenchmarkE12ObsOverhead
//	E13 BenchmarkE13Recovery
//	E14 BenchmarkE14Failover
//	E15 BenchmarkE15RemoteView
//
// Domain-specific results (acceptance ratios, footprints, backtracks) are
// emitted with b.ReportMetric, so `go test -bench . -benchmem` prints the
// table rows directly. The acceptance curves of E2 and E4 are pinned, cell
// by cell, by TestPaperAcceptanceCurves.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/dataplane"
	"github.com/unify-repro/escape/internal/decomp"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/domain/mininet"
	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/netconf"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/obs"
	"github.com/unify-repro/escape/internal/openflow"
	"github.com/unify-repro/escape/internal/unify"
)

// --- shared generators -------------------------------------------------------

// syntheticDov builds a DoV-like graph with n BiS-BiS across d domains in a
// ring, one user SAP per domain.
func syntheticDov(n, d int) *nffg.NFFG {
	b := nffg.NewBuilder(fmt.Sprintf("dov-%d-%d", n, d))
	var nodes []nffg.ID
	for i := 0; i < n; i++ {
		id := nffg.ID(fmt.Sprintf("bb%03d", i))
		dom := fmt.Sprintf("dom%d", i%d)
		b.BiSBiS(id, dom, 6, nffg.Resources{CPU: 16, Mem: 16384, Storage: 128},
			"firewall", "dpi", "nat", "compress")
		nodes = append(nodes, id)
	}
	for i := 0; i < n; i++ {
		b.Link(fmt.Sprintf("r%03d", i), nodes[i], "2", nodes[(i+1)%n], "1", 1000, 0.5)
	}
	for i := 0; i < d && i < n; i++ {
		sap := nffg.ID(fmt.Sprintf("sap%d", i))
		b.SAP(sap)
		b.Link(fmt.Sprintf("u%03d", i), sap, "1", nodes[i], "3", 1000, 0.5)
	}
	return b.MustBuild()
}

// sapPair yields distinct ordered SAP pairs as j grows (unique classifier
// per request while j < nSaps*(nSaps-1)).
func sapPair(j, nSaps int) (nffg.ID, nffg.ID) {
	stride := 1 + j/nSaps
	a := j % nSaps
	c := (a + stride) % nSaps
	if c == a {
		c = (a + 1) % nSaps
	}
	return nffg.ID(fmt.Sprintf("sap%d", a)), nffg.ID(fmt.Sprintf("sap%d", c))
}

// chainReqN builds a k-NF chain between two SAPs with uniform demand.
func chainReqN(id string, sapA, sapB nffg.ID, k int, bw float64) *nffg.NFFG {
	b := nffg.NewBuilder(id).SAP(sapA).SAP(sapB)
	types := []string{"firewall", "dpi", "nat", "compress"}
	nodes := []nffg.ID{sapA}
	for i := 0; i < k; i++ {
		nf := nffg.ID(fmt.Sprintf("%s-nf%d", id, i))
		b.NF(nf, types[i%len(types)], 2, nffg.Resources{CPU: 2, Mem: 1024, Storage: 4})
		nodes = append(nodes, nf)
	}
	nodes = append(nodes, sapB)
	b.Chain(id, bw, 0, nodes...)
	return b.MustBuild()
}

// fillResult sums what fill's accepted requests cost the substrate.
type fillResult struct {
	accepted   int
	footprint  float64 // summed mapping footprints
	backtracks int
}

// fill offers req(0) … req(load-1) to m one at a time on sub, applying each
// accepted mapping before the next request is mapped: the fill-to-saturation
// loop behind the acceptance experiments (E2, E4).
func fill(m *embed.Mapper, sub *nffg.NFFG, load int, req func(j int) *nffg.NFFG) fillResult {
	var r fillResult
	for j := 0; j < load; j++ {
		mp, err := m.Map(sub, req(j))
		if err != nil {
			continue
		}
		next, err := embed.Apply(sub, mp)
		if err != nil {
			continue
		}
		sub = next
		r.accepted++
		r.footprint += mp.Footprint
		r.backtracks += mp.Backtracks
	}
	return r
}

// e2Request is E2's j-th request on syntheticDov(12, 8): a 2-NF, 150 Mbit
// chain between the j-th pair of its 8 SAPs.
func e2Request(j int) *nffg.NFFG {
	sapA, sapB := sapPair(j, 8)
	return chainReqN(fmt.Sprintf("l%d", j), sapA, sapB, 2, 150)
}

// e4Substrate is E4's substrate: an 8-node ring over 8 domains that also
// runs the secure-gw monolith natively. One 10-CPU monolith fragments a
// 16-CPU node (6 CPU stranded); 5-CPU components pack three per node. That
// fragmentation gap is exactly Sahhaf et al.'s motivation.
func e4Substrate() *nffg.NFFG {
	sub := syntheticDov(8, 8)
	for _, id := range sub.InfraIDs() {
		i := sub.Infras.Get(id)
		i.Supported = append(i.Supported, "secure-gw")
	}
	return sub
}

// e4Request is E4's j-th request: one 10-CPU secure-gw between the j-th
// pair of e4Substrate's SAPs.
func e4Request(j int) *nffg.NFFG {
	id := fmt.Sprintf("gw%d", j)
	sapA, sapB := sapPair(j, 8)
	return nffg.NewBuilder(id).
		SAP(sapA).SAP(sapB).
		NF(nffg.ID(id+"-gw"), "secure-gw", 2, nffg.Resources{CPU: 10, Mem: 8192, Storage: 32}).
		Chain(id, 20, 0, sapA, nffg.ID(id+"-gw"), sapB).
		MustBuild()
}

// secureGWRules decomposes E4's secure-gw into a 5-CPU firewall and a 5-CPU
// compressor in series.
func secureGWRules() *decomp.Rules {
	rules := decomp.NewRules()
	if err := rules.Add("secure-gw", decomp.Decomposition{
		Name: "split",
		Components: []decomp.Component{
			{Suffix: "fw", FunctionalType: "firewall", Ports: 2, Demand: nffg.Resources{CPU: 5, Mem: 4096, Storage: 16}},
			{Suffix: "enc", FunctionalType: "compress", Ports: 2, Demand: nffg.Resources{CPU: 5, Mem: 4096, Storage: 16}},
		},
		Internal: []decomp.InternalLink{{SrcComp: "fw", SrcPort: "2", DstComp: "enc", DstPort: "1", Bandwidth: 10}},
		PortMaps: []decomp.PortMap{{Outer: "1", Comp: "fw", Inner: "1"}, {Outer: "2", Comp: "enc", Inner: "2"}},
		Cost:     1,
	}); err != nil {
		panic(err)
	}
	return rules
}

// --- E1: joint domain abstraction -------------------------------------------

// BenchmarkE1ViewComputation measures view derivation cost for the three
// virtualization policies over growing resource views (demo claim i: the
// joint abstraction is cheap enough to recompute on demand).
func BenchmarkE1ViewComputation(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256} {
		dov := syntheticDov(n, 4)
		for _, virt := range []core.Virtualizer{core.Transparent{}, core.DomainBiSBiS{}, core.SingleBiSBiS{}} {
			b.Run(fmt.Sprintf("nodes=%d/%s", n, virt.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := virt.View(dov); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE1DomainAggregation measures folding per-domain views into the
// DoV (orchestrator attach path).
func BenchmarkE1DomainAggregation(b *testing.B) {
	for _, domains := range []int{2, 4, 8, 16} {
		views := make([]*nffg.NFFG, domains)
		for i := range views {
			v := syntheticDov(4, 1)
			// Rename nodes/domain per child so merges do not collide.
			renamed := nffg.New(fmt.Sprintf("d%d", i))
			for _, id := range v.InfraIDs() {
				inf := v.Infras.Get(id)
				inf.ID = nffg.ID(fmt.Sprintf("d%d-%s", i, id))
				inf.Domain = fmt.Sprintf("dom%d", i)
				_ = renamed.AddInfra(inf)
			}
			for _, id := range v.SAPIDs() {
				s := v.SAPs.Get(id)
				s.ID = nffg.ID(fmt.Sprintf("d%d-%s", i, id))
				_ = renamed.AddSAP(s)
			}
			for l := range v.Links() {
				l.SrcNode = nffg.ID(fmt.Sprintf("d%d-%s", i, l.SrcNode))
				l.DstNode = nffg.ID(fmt.Sprintf("d%d-%s", i, l.DstNode))
				if err := renamed.AddLink(l); err != nil {
					b.Fatal(err)
				}
			}
			views[i] = renamed
		}
		b.Run(fmt.Sprintf("domains=%d", domains), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dov := nffg.New("dov")
				for _, v := range views {
					if err := dov.Merge(v); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- E2: chain deployment over unified resources ------------------------------

// BenchmarkE2ChainDeployment measures full install+remove cycles of k-NF
// chains through the complete Fig. 1 stack (live NETCONF/OpenFlow/REST
// control channels included).
func BenchmarkE2ChainDeployment(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("nfs=%d", k), func(b *testing.B) {
			sys, err := NewFig1System(Fig1Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := chainReqN(fmt.Sprintf("bench-%d", i), "sap1", "sap2", k, 10)
				if _, err := sys.MdO.Install(context.Background(), req); err != nil {
					b.Fatal(err)
				}
				if err := sys.MdO.Remove(context.Background(), req.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2MapperVsBaselines compares embedding algorithms on acceptance
// ratio and resource footprint under increasing load: the optimization half
// of demo claim (ii). Requests use distinct SAP pairs round-robin.
func BenchmarkE2MapperVsBaselines(b *testing.B) {
	algs := []*embed.Mapper{embed.NewDefault(), embed.NewFirstFit(), embed.NewRandom(7)}
	const load = 40
	for _, alg := range algs {
		b.Run(alg.Name(), func(b *testing.B) {
			var sum fillResult
			for i := 0; i < b.N; i++ {
				r := fill(alg, syntheticDov(12, 8), load, e2Request)
				sum.accepted += r.accepted
				sum.footprint += r.footprint
				sum.backtracks += r.backtracks
			}
			b.ReportMetric(float64(sum.accepted)/float64(load*b.N)*100, "accept_%")
			if sum.accepted > 0 {
				b.ReportMetric(sum.footprint/float64(sum.accepted), "footprint/chain")
			}
			b.ReportMetric(float64(sum.backtracks)/float64(b.N), "backtracks/run")
		})
	}
}

// BenchmarkE2BacktrackAblation sweeps the mapper's backtracking budget, the
// mapper's main design choice (0 = pure greedy).
func BenchmarkE2BacktrackAblation(b *testing.B) {
	const load = 40
	for _, budget := range []int{0, 8, 32, 128, 512} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			alg := embed.New(embed.Options{MaxBacktrack: budget, KPaths: 3})
			accepted := 0
			for i := 0; i < b.N; i++ {
				accepted += fill(alg, syntheticDov(12, 8), load, e2Request).accepted
			}
			b.ReportMetric(float64(accepted)/float64(load*b.N)*100, "accept_%")
		})
	}
}

// --- E3: recursive orchestration ----------------------------------------------

// stackDepth builds `depth` orchestrators above a synthetic leaf.
func stackDepth(b *testing.B, depth int) unify.Layer {
	b.Helper()
	sub := syntheticDov(4, 2) // two user SAPs: sap0, sap1
	lo, err := core.NewLocalOrchestrator(core.LocalConfig{ID: "leaf", Substrate: sub})
	if err != nil {
		b.Fatal(err)
	}
	var top unify.Layer = lo
	for i := 1; i <= depth; i++ {
		ro := core.NewResourceOrchestrator(core.Config{
			ID:          fmt.Sprintf("layer%d", i),
			Virtualizer: core.SingleBiSBiS{NodeID: nffg.ID(fmt.Sprintf("bisbis@l%d", i))},
		})
		if err := ro.Attach(context.Background(), top.(domain.Domain)); err != nil {
			b.Fatal(err)
		}
		top = ro
	}
	return top
}

// BenchmarkE3RecursionDepth measures end-to-end deployment latency as
// orchestration layers stack (demo claim iii-a): overhead should grow
// roughly linearly and stay a small fraction of a deployment.
func BenchmarkE3RecursionDepth(b *testing.B) {
	for depth := 0; depth <= 4; depth++ {
		b.Run(fmt.Sprintf("layers=%d", depth), func(b *testing.B) {
			top := stackDepth(b, depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := chainReqN(fmt.Sprintf("svc%d-%d", depth, i), "sap0", "sap1", 2, 5)
				if _, err := top.Install(context.Background(), req); err != nil {
					b.Fatal(err)
				}
				if err := top.Remove(context.Background(), req.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4: NF decomposition -----------------------------------------------------

// BenchmarkE4Decomposition reproduces the shape of Sahhaf et al.: acceptance
// ratio with decomposition on/off when monolithic NFs stop fitting.
func BenchmarkE4Decomposition(b *testing.B) {
	const load = 16
	for _, cfg := range []struct {
		name  string
		rules *decomp.Rules
	}{{"monolithic", nil}, {"decomposed", secureGWRules()}} {
		b.Run(cfg.name, func(b *testing.B) {
			alg := embed.New(embed.Options{MaxBacktrack: 64, Decomp: cfg.rules})
			accepted := 0
			for i := 0; i < b.N; i++ {
				accepted += fill(alg, e4Substrate(), load, e4Request).accepted
			}
			b.ReportMetric(float64(accepted)/float64(load*b.N)*100, "accept_%")
		})
	}
}

// --- E5: control-plane and datapath substrate ----------------------------------

// BenchmarkE5Netconf measures NETCONF transaction throughput (hello once,
// then edit-config/get-config cycles over TCP).
func BenchmarkE5Netconf(b *testing.B) {
	ds := &benchDatastore{}
	srv := netconf.NewServer(ds)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := netconf.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	payload := []byte("<virtualizer id=\"bench\"><nodes><infra><id>x</id></infra></nodes></virtualizer>")
	ctx := context.Background()
	b.Run("edit-config", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := cli.EditConfig(ctx, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get-config", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cli.GetConfig(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type benchDatastore struct{ cfg []byte }

func (d *benchDatastore) GetConfig() ([]byte, error)          { return d.cfg, nil }
func (d *benchDatastore) EditConfig(c []byte) ([]byte, error) { d.cfg = c; return nil, nil }
func (d *benchDatastore) Call(string, []byte) ([]byte, error) {
	return nil, nil
}

// BenchmarkE5OpenFlow measures flow-mod round-trip latency (flow-mod +
// barrier over TCP) and stats collection.
func BenchmarkE5OpenFlow(b *testing.B) {
	eng := dataplane.NewEngine()
	sw := dataplane.NewSwitch(eng, "bench-sw")
	ctrl := openflow.NewController()
	addr, err := ctrl.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ctrl.Close()
	ag := openflow.NewSwitchAgent("bench-sw", sw, []uint16{1, 2})
	if err := ag.Connect(addr); err != nil {
		b.Fatal(err)
	}
	defer ag.Close()
	if err := ctrl.WaitForSwitches(1, 5*time.Second); err != nil {
		b.Fatal(err)
	}
	b.Run("flowmod+barrier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fm := &openflow.FlowMod{
				Cmd: openflow.FlowAdd, RuleID: fmt.Sprintf("r%d", i%512),
				Priority: 10, InPort: 1, AnyTag: true, OutPort: 2,
			}
			if err := ctrl.FlowMod(context.Background(), "bench-sw", fm); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stats", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ctrl.Stats(context.Background(), "bench-sw"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5UNFastPath is the DPDK-surrogate ablation: per-packet lookups
// versus single-lock batched lookups on the UN's LSI flow table.
func BenchmarkE5UNFastPath(b *testing.B) {
	mkTable := func(rules int) *dataplane.FlowTable {
		ft := dataplane.NewFlowTable()
		for i := 0; i < rules; i++ {
			ft.Install(&dataplane.Rule{
				ID: fmt.Sprintf("r%d", i), Priority: i,
				Match:  dataplane.Match{InPort: 1, Tag: fmt.Sprintf("t%d", i)},
				Action: dataplane.Action{OutPort: 2},
			})
		}
		return ft
	}
	const rules = 64
	for _, batch := range []int{1, 8, 32, 128} {
		pkts := make([]*dataplane.Packet, batch)
		for i := range pkts {
			p := dataplane.NewPacket("a", "b", uint64(i), 100)
			p.Tag = fmt.Sprintf("t%d", i%rules)
			pkts[i] = p
		}
		b.Run(fmt.Sprintf("per-packet/batch=%d", batch), func(b *testing.B) {
			ft := mkTable(rules)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pkts {
					ft.Lookup(p, 1)
				}
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds()/1e6, "Mlookups/s")
		})
		b.Run(fmt.Sprintf("batched/batch=%d", batch), func(b *testing.B) {
			ft := mkTable(rules)
			buf := make([]*dataplane.Rule, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ft.LookupBatchInto(pkts, 1, buf)
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds()/1e6, "Mlookups/s")
		})
	}
	// Contended variants: several cores share one LSI table (the realistic
	// accelerated-datapath setting where lock amortization pays).
	const batch = 32
	mkPkts := func() []*dataplane.Packet {
		pkts := make([]*dataplane.Packet, batch)
		for i := range pkts {
			p := dataplane.NewPacket("a", "b", uint64(i), 100)
			p.Tag = fmt.Sprintf("t%d", i%rules)
			pkts[i] = p
		}
		return pkts
	}
	b.Run("contended/per-packet", func(b *testing.B) {
		ft := mkTable(rules)
		b.RunParallel(func(pb *testing.PB) {
			pkts := mkPkts()
			for pb.Next() {
				for _, p := range pkts {
					ft.Lookup(p, 1)
				}
			}
		})
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds()/1e6, "Mlookups/s")
	})
	b.Run("contended/batched", func(b *testing.B) {
		ft := mkTable(rules)
		b.RunParallel(func(pb *testing.PB) {
			pkts := mkPkts()
			buf := make([]*dataplane.Rule, batch)
			for pb.Next() {
				ft.LookupBatchInto(pkts, 1, buf)
			}
		})
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds()/1e6, "Mlookups/s")
	})
}

// --- E6: concurrent orchestration pipeline ------------------------------------

// benchLineRO builds n leaf domains in a line (sap1 - d0 - b0 - ... - sap2),
// each with an artificial device-programming latency, under one resource
// orchestrator — the setup behind the parallel fan-out claim.
func benchLineRO(b *testing.B, n int, delay time.Duration) *core.ResourceOrchestrator {
	b.Helper()
	ro := core.NewResourceOrchestrator(core.Config{ID: "ro"})
	slow := core.ProgrammerFunc(func(ctx context.Context, _ *nffg.Delta, _ *nffg.NFFG) error {
		select {
		case <-time.After(delay):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("d%d", i)
		left := nffg.ID(fmt.Sprintf("b%d", i-1))
		if i == 0 {
			left = "sap1"
		}
		right := nffg.ID(fmt.Sprintf("b%d", i))
		if i == n-1 {
			right = "sap2"
		}
		sub := nffg.NewBuilder(name).
			BiSBiS(nffg.ID(name+"-n"), name, 4, nffg.Resources{CPU: 1 << 20, Mem: 1 << 30, Storage: 1 << 20},
				"firewall", "dpi", "nat", "compress").
			SAP(left).SAP(right).
			Link("l", left, "1", nffg.ID(name+"-n"), "1", 1e6, 1).
			Link("r", nffg.ID(name+"-n"), "2", right, "1", 1e6, 1).
			MustBuild()
		lo, err := core.NewLocalOrchestrator(core.LocalConfig{ID: name, Substrate: sub, Programmer: slow})
		if err != nil {
			b.Fatal(err)
		}
		if err := ro.Attach(context.Background(), lo); err != nil {
			b.Fatal(err)
		}
	}
	return ro
}

// benchDomainReq builds a 1-NF chain pinned entirely inside domain i of an
// n-domain line (distinct flow endpoints per domain, so requests are
// independent).
func benchDomainReq(id string, i, n int) *nffg.NFFG {
	left := fmt.Sprintf("b%d", i-1)
	if i == 0 {
		left = "sap1"
	}
	right := fmt.Sprintf("b%d", i)
	if i == n-1 {
		right = "sap2"
	}
	nf := nffg.ID(id + "-nf")
	g := nffg.NewBuilder(id).
		SAP(nffg.ID(left)).SAP(nffg.ID(right)).
		NF(nf, "firewall", 2, nffg.Resources{CPU: 2, Mem: 512, Storage: 1}).
		Chain(id, 1, 0, nffg.ID(left), nf, nffg.ID(right)).
		MustBuild()
	g.NFs.Get(nf).Host = nffg.ID(fmt.Sprintf("bisbis@d%d", i))
	return g
}

// BenchmarkE6ParallelInstall measures the tentpole speedup: N independent
// services over M slow domains (10ms child-install latency), deployed
// serially versus from N goroutines. The concurrent batch should finish in
// ~1 child latency instead of N of them; batch wall-clock is reported as
// ms/batch.
func BenchmarkE6ParallelInstall(b *testing.B) {
	const domains = 4
	const childLatency = 10 * time.Millisecond
	for _, mode := range []string{"serial", "concurrent"} {
		b.Run(fmt.Sprintf("%s/domains=%d", mode, domains), func(b *testing.B) {
			ro := benchLineRO(b, domains, childLatency)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids := make([]string, domains)
				for d := 0; d < domains; d++ {
					ids[d] = fmt.Sprintf("s%d-%d", i, d)
				}
				if mode == "serial" {
					for d := 0; d < domains; d++ {
						if _, err := ro.Install(ctx, benchDomainReq(ids[d], d, domains)); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					var wg sync.WaitGroup
					errs := make([]error, domains)
					for d := 0; d < domains; d++ {
						wg.Add(1)
						go func(d int) {
							defer wg.Done()
							_, errs[d] = ro.Install(ctx, benchDomainReq(ids[d], d, domains))
						}(d)
					}
					wg.Wait()
					for _, err := range errs {
						if err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				for _, id := range ids {
					if err := ro.Remove(ctx, id); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/batch")
		})
	}
}

// BenchmarkE6FanOut measures a single service spanning all M domains: child
// deploys fan out in parallel goroutines, so install latency tracks the
// slowest child, not the sum.
func BenchmarkE6FanOut(b *testing.B) {
	const childLatency = 10 * time.Millisecond
	for _, domains := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("domains=%d", domains), func(b *testing.B) {
			ro := benchLineRO(b, domains, childLatency)
			ctx := context.Background()
			types := []string{"firewall", "dpi", "nat", "compress"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := fmt.Sprintf("span%d", i)
				bld := nffg.NewBuilder(id).SAP("sap1").SAP("sap2")
				nodes := []nffg.ID{"sap1"}
				for d := 0; d < domains; d++ {
					nf := nffg.ID(fmt.Sprintf("%s-nf%d", id, d))
					bld.NF(nf, types[d%len(types)], 2, nffg.Resources{CPU: 2, Mem: 512, Storage: 1})
					nodes = append(nodes, nf)
				}
				nodes = append(nodes, "sap2")
				bld.Chain(id, 1, 0, nodes...)
				req := bld.MustBuild()
				for d := 0; d < domains; d++ {
					req.NFs.Get(nffg.ID(fmt.Sprintf("%s-nf%d", id, d))).Host = nffg.ID(fmt.Sprintf("bisbis@d%d", d))
				}
				if _, err := ro.Install(ctx, req); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := ro.Remove(ctx, id); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/1000, "ms/install")
		})
	}
}

// --- E7: batched admission ------------------------------------------------------

// benchE7Domain is a trivial leaf: it exports a fixed view and installs
// instantly, so E7 measures admission coordination at the orchestrator, not
// leaf-side deployment.
type benchE7Domain struct {
	id   string
	view *nffg.NFFG

	mu       sync.Mutex
	services map[string]bool
}

func (d *benchE7Domain) ID() string                               { return d.id }
func (d *benchE7Domain) View(context.Context) (*nffg.NFFG, error) { return d.view.Copy(), nil }
func (d *benchE7Domain) Capabilities() []domain.Capability {
	return []domain.Capability{domain.CapCompute, domain.CapForwarding}
}
func (d *benchE7Domain) Install(_ context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	d.mu.Lock()
	d.services[req.ID] = true
	d.mu.Unlock()
	return &unify.Receipt{ServiceID: req.ID}, nil
}
func (d *benchE7Domain) Remove(_ context.Context, id string) error {
	d.mu.Lock()
	delete(d.services, id)
	d.mu.Unlock()
	return nil
}
func (d *benchE7Domain) Services() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.services))
	for id := range d.services {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// benchE7RO builds a `domains`-line RO where every leaf exports `slots`
// dedicated user-SAP pairs, so slots×domains independent chains can coexist
// (chains sharing an untagged SAP-facing port would collide).
func benchE7RO(b *testing.B, domains, slots int) *core.ResourceOrchestrator {
	b.Helper()
	// E7 isolates the value of BATCHING on one contended generation counter,
	// so it pins the single-shard (pre-sharding) configuration; E8 below
	// measures what SHARDING adds on top.
	return benchShardRO(b, domains, slots, core.SingleShard)
}

// benchShardRO is benchE7RO parameterized by the DoV sharding policy.
func benchShardRO(b *testing.B, domains, slots int, shardKey core.ShardKeyFunc) *core.ResourceOrchestrator {
	b.Helper()
	// The mapper ranks candidates with a deliberate per-NF cost, modeling an
	// expensive placement policy: a scheduler yield so concurrent submitters
	// genuinely overlap mid-mapping regardless of the host's core count (a
	// single-core runner would otherwise run each optimistic pass atomically
	// and hide the contention this benchmark measures), then a CPU-bound spin
	// so every re-mapping pass burns real work -- the cost batching exists to
	// amortize.
	slowRank := func(nf *nffg.NF, cands []embed.Candidate) []nffg.ID {
		runtime.Gosched()
		var sink uint64
		for i := 0; i < 300_000; i++ {
			sink = sink*1664525 + 1013904223 + uint64(i)
		}
		if sink == ^uint64(0) {
			panic("unreachable: defeats dead-code elimination")
		}
		return embed.BestFit(nf, cands)
	}
	ro := core.NewResourceOrchestrator(core.Config{
		ID:       "ro",
		Mapper:   embed.New(embed.Options{Name: "slow-rank", Rank: slowRank}),
		ShardKey: shardKey,
	})
	for i := 0; i < domains; i++ {
		name := fmt.Sprintf("d%d", i)
		left := nffg.ID(fmt.Sprintf("b%d", i-1))
		if i == 0 {
			left = "sap1"
		}
		right := nffg.ID(fmt.Sprintf("b%d", i))
		if i == domains-1 {
			right = "sap2"
		}
		node := nffg.ID(name + "-n")
		bl := nffg.NewBuilder(name).
			BiSBiS(node, name, 2+2*slots, nffg.Resources{CPU: 1 << 20, Mem: 1 << 30, Storage: 1 << 20},
				"firewall", "dpi", "nat", "compress").
			SAP(left).SAP(right).
			Link("l", left, "1", node, "1", 1e6, 1).
			Link("r", node, "2", right, "1", 1e6, 1)
		for j := 0; j < slots; j++ {
			in := nffg.ID(fmt.Sprintf("u%d-%din", i, j))
			out := nffg.ID(fmt.Sprintf("u%d-%dout", i, j))
			bl.SAP(in).SAP(out).
				Link(fmt.Sprintf("ui%d", j), in, "1", node, fmt.Sprint(3+2*j), 1e6, 1).
				Link(fmt.Sprintf("uo%d", j), node, fmt.Sprint(4+2*j), out, "1", 1e6, 1)
		}
		leaf := &benchE7Domain{id: name, view: bl.MustBuild(), services: map[string]bool{}}
		if err := ro.Attach(context.Background(), leaf); err != nil {
			b.Fatal(err)
		}
	}
	return ro
}

// benchE7Req builds a 3-NF chain on slot j of domain i (the multi-NF chain
// makes each mapping pass cost something worth amortizing).
func benchE7Req(id string, i, j int) *nffg.NFFG {
	in := nffg.ID(fmt.Sprintf("u%d-%din", i, j))
	out := nffg.ID(fmt.Sprintf("u%d-%dout", i, j))
	bl := nffg.NewBuilder(id).SAP(in).SAP(out)
	types := []string{"firewall", "dpi", "nat"}
	nodes := []nffg.ID{in}
	for k, typ := range types {
		nf := nffg.ID(fmt.Sprintf("%s-nf%d", id, k))
		bl.NF(nf, typ, 2, nffg.Resources{CPU: 2, Mem: 512, Storage: 1})
		nodes = append(nodes, nf)
	}
	nodes = append(nodes, out)
	bl.Chain(id, 1, 0, nodes...)
	return bl.MustBuild()
}

// BenchmarkE7BatchedAdmission measures the admission tentpole: C concurrent
// submitters over one shared 8-domain substrate, installing directly (every
// install races the DoV generation counter, retrying on ErrBusy like a real
// client) versus through the admission queue (the burst coalesces into batch
// commits). Reported per sub-benchmark: install throughput, generation
// conflicts per install, and mapping passes per install (1.0 = perfectly
// amortized).
func BenchmarkE7BatchedAdmission(b *testing.B) {
	const domains = 8
	// The contention being measured needs submitters that actually interleave
	// mid-mapping; on small CI runners GOMAXPROCS can be 1, which would
	// serialize the whole benchmark and hide the effect.
	if runtime.GOMAXPROCS(0) < 8 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	}
	for _, clients := range []int{1, 4, 16, 64} {
		slots := (clients + domains - 1) / domains
		for _, mode := range []string{"direct", "batched"} {
			b.Run(fmt.Sprintf("%s/clients=%d", mode, clients), func(b *testing.B) {
				ro := benchE7RO(b, domains, slots)
				install := ro.Install
				if mode == "batched" {
					q := admission.New(ro, admission.Options{MaxBatch: clients})
					defer q.Close()
					install = q.Install
				}
				ctx := context.Background()
				before := ro.PipelineStats()
				var retries int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := make(chan struct{})
					var wg sync.WaitGroup
					errs := make([]error, clients)
					busy := make([]int64, clients)
					for c := 0; c < clients; c++ {
						wg.Add(1)
						go func(c int) {
							defer wg.Done()
							<-start
							req := benchE7Req(fmt.Sprintf("e7-%d-%d", i, c), c%domains, c/domains)
							for {
								_, err := install(ctx, req)
								if errors.Is(err, unify.ErrBusy) {
									busy[c]++ // crowded out: a real client retries
									continue
								}
								errs[c] = err
								return
							}
						}(c)
					}
					close(start)
					wg.Wait()
					for _, err := range errs {
						if err != nil {
							b.Fatal(err)
						}
					}
					for _, n := range busy {
						retries += n
					}
					b.StopTimer()
					for c := 0; c < clients; c++ {
						if err := ro.Remove(ctx, fmt.Sprintf("e7-%d-%d", i, c)); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
				st := ro.PipelineStats()
				installs := float64(st.Installs - before.Installs)
				b.ReportMetric(installs/b.Elapsed().Seconds(), "installs/s")
				b.ReportMetric(float64(st.GenConflicts-before.GenConflicts)/installs, "conflicts/install")
				b.ReportMetric(float64(st.MapAttempts-before.MapAttempts)/installs, "mappasses/install")
				b.ReportMetric(float64(retries)/installs, "busy-retries/install")
			})
		}
	}
}

// BenchmarkE7BatchMapping isolates the mapping amortization (no concurrency,
// no contention): K requests admitted as one InstallBatch versus K sequential
// Installs over the same substrate.
func BenchmarkE7BatchMapping(b *testing.B) {
	const domains = 8
	for _, batch := range []int{1, 8, 32} {
		slots := (batch + domains - 1) / domains
		for _, mode := range []string{"sequential", "batch"} {
			b.Run(fmt.Sprintf("%s/reqs=%d", mode, batch), func(b *testing.B) {
				ro := benchE7RO(b, domains, slots)
				ctx := context.Background()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					reqs := make([]*nffg.NFFG, batch)
					for c := range reqs {
						reqs[c] = benchE7Req(fmt.Sprintf("bm-%d-%d", i, c), c%domains, c/domains)
					}
					if mode == "batch" {
						for c, o := range ro.InstallBatch(ctx, reqs, unify.BatchObserver{}) {
							if o.Err != nil {
								b.Fatal(c, o.Err)
							}
						}
					} else {
						for _, req := range reqs {
							if _, err := ro.Install(ctx, req); err != nil {
								b.Fatal(err)
							}
						}
					}
					b.StopTimer()
					for _, req := range reqs {
						if err := ro.Remove(ctx, req.ID); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(batch), "us/request")
			})
		}
	}
}

// --- E8: sharded DoV commits --------------------------------------------------

// benchE8RO builds `domains` leaf domains for the sharding benchmark. Unlike
// benchE7RO's aggregated leaves, each domain transparently exports TWO
// BiS-BiS nodes, so a request pinned to the domain's view aggregate
// ("bisbis@d<i>" under the RO's DomainBiSBiS view) expands to a 2-candidate
// scope — the expensive rank function runs for every NF, keeping the mapping
// cost (the window commits race over) identical in both sharding modes.
// Every domain has one dedicated user-SAP pair, so the benchmark requests'
// shard sets are exactly their own domain.
func benchE8RO(b *testing.B, domains int, shardKey core.ShardKeyFunc) *core.ResourceOrchestrator {
	b.Helper()
	slowRank := func(nf *nffg.NF, cands []embed.Candidate) []nffg.ID {
		runtime.Gosched()
		var sink uint64
		for i := 0; i < 300_000; i++ {
			sink = sink*1664525 + 1013904223 + uint64(i)
		}
		if sink == ^uint64(0) {
			panic("unreachable: defeats dead-code elimination")
		}
		return embed.BestFit(nf, cands)
	}
	ro := core.NewResourceOrchestrator(core.Config{
		ID:       "ro",
		Mapper:   embed.New(embed.Options{Name: "slow-rank", Rank: slowRank}),
		ShardKey: shardKey,
	})
	for i := 0; i < domains; i++ {
		name := fmt.Sprintf("d%d", i)
		n1 := nffg.ID(name + "-n1")
		n2 := nffg.ID(name + "-n2")
		in := nffg.ID(fmt.Sprintf("u%d-in", i))
		out := nffg.ID(fmt.Sprintf("u%d-out", i))
		sub := nffg.NewBuilder(name).
			BiSBiS(n1, name, 4, nffg.Resources{CPU: 1 << 20, Mem: 1 << 30, Storage: 1 << 20},
				"firewall", "dpi", "nat").
			BiSBiS(n2, name, 4, nffg.Resources{CPU: 1 << 20, Mem: 1 << 30, Storage: 1 << 20},
				"firewall", "dpi", "nat").
			SAP(in).SAP(out).
			Link("i", in, "1", n1, "1", 1e6, 1).
			Link("m", n1, "2", n2, "1", 1e6, 1).
			Link("o", n2, "2", out, "1", 1e6, 1).
			MustBuild()
		lo, err := core.NewLocalOrchestrator(core.LocalConfig{
			ID: name, Substrate: sub, Virtualizer: core.Transparent{},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := ro.Attach(context.Background(), lo); err != nil {
			b.Fatal(err)
		}
	}
	return ro
}

// benchE8Req builds a 3-NF chain inside domain i, pinned to the domain's
// view aggregate: its shard set narrows to exactly {d<i>}, and the pin
// expands to a 2-node scope so placement still ranks candidates.
func benchE8Req(id string, i int) *nffg.NFFG {
	in := nffg.ID(fmt.Sprintf("u%d-in", i))
	out := nffg.ID(fmt.Sprintf("u%d-out", i))
	bl := nffg.NewBuilder(id).SAP(in).SAP(out)
	nodes := []nffg.ID{in}
	for k, typ := range []string{"firewall", "dpi", "nat"} {
		nf := nffg.ID(fmt.Sprintf("%s-nf%d", id, k))
		bl.NF(nf, typ, 2, nffg.Resources{CPU: 2, Mem: 512, Storage: 1})
		nodes = append(nodes, nf)
	}
	nodes = append(nodes, out)
	bl.Chain(id, 1, 0, nodes...)
	req := bl.MustBuild()
	for _, nfID := range req.NFIDs() {
		req.NFs.Get(nfID).Host = nffg.ID(fmt.Sprintf("bisbis@d%d", i))
	}
	return req
}

// BenchmarkE8ShardedCommit measures the sharding tentpole: C concurrent
// clients install into C DISJOINT domains (each request's shard set is
// exactly its own domain) over one orchestrator, with the DoV either behind a
// single generation counter (the pre-sharding baseline: every commit races
// every other, losers re-run the whole expensive mapping) or sharded per
// domain (disjoint installs snapshot→map→commit fully concurrently). The
// single-shard curve collapses with client count while the sharded curve
// scales ~linearly: conflicts/install stays 0 and mappasses/install stays
// 1.0 on disjoint workloads.
func BenchmarkE8ShardedCommit(b *testing.B) {
	// The scaling being measured needs clients that actually run in
	// parallel; on small CI runners GOMAXPROCS can be lower than the widest
	// sub-benchmark, which would serialize it and hide the effect.
	if runtime.GOMAXPROCS(0) < 8 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, mode := range []string{"single", "sharded"} {
			b.Run(fmt.Sprintf("%s/shards=%d", mode, shards), func(b *testing.B) {
				key := core.SingleShard
				if mode == "sharded" {
					key = core.ShardPerDomain
				}
				ro := benchE8RO(b, shards, key)
				ctx := context.Background()
				before := ro.PipelineStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := make(chan struct{})
					var wg sync.WaitGroup
					errs := make([]error, shards)
					for c := 0; c < shards; c++ {
						wg.Add(1)
						go func(c int) {
							defer wg.Done()
							<-start
							req := benchE8Req(fmt.Sprintf("e8-%d-%d", i, c), c)
							for {
								_, err := ro.Install(ctx, req)
								if errors.Is(err, unify.ErrBusy) {
									continue // crowded out: a real client retries
								}
								errs[c] = err
								return
							}
						}(c)
					}
					close(start)
					wg.Wait()
					for _, err := range errs {
						if err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					for c := 0; c < shards; c++ {
						if err := ro.Remove(ctx, fmt.Sprintf("e8-%d-%d", i, c)); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
				st := ro.PipelineStats()
				installs := float64(st.Installs - before.Installs)
				b.ReportMetric(installs/b.Elapsed().Seconds(), "installs/s")
				b.ReportMetric(float64(st.GenConflicts-before.GenConflicts)/installs, "conflicts/install")
				b.ReportMetric(float64(st.MapAttempts-before.MapAttempts)/installs, "mappasses/install")
			})
		}
	}
}

// --- E9: generation-keyed read path ---------------------------------------------

// benchE9RO builds `domains` transparent leaves of `nodesPer` BiS-BiS each
// (one dedicated user-SAP pair per domain) under one orchestrator with the
// default DomainBiSBiS northbound view — the read-path workload: every View
// must aggregate domains*nodesPer nodes unless the caches serve it.
func benchE9RO(b *testing.B, domains, nodesPer int) *core.ResourceOrchestrator {
	b.Helper()
	ro := core.NewResourceOrchestrator(core.Config{ID: "ro"})
	for i := 0; i < domains; i++ {
		name := fmt.Sprintf("d%d", i)
		bl := nffg.NewBuilder(name)
		var prev nffg.ID
		for j := 0; j < nodesPer; j++ {
			id := nffg.ID(fmt.Sprintf("%s-n%d", name, j))
			bl.BiSBiS(id, name, 4, nffg.Resources{CPU: 1 << 10, Mem: 1 << 20, Storage: 1 << 10},
				"firewall", "dpi", "nat")
			if j > 0 {
				bl.Link(fmt.Sprintf("l%d", j), prev, "2", id, "1", 1e6, 1)
			}
			prev = id
		}
		in := nffg.ID(fmt.Sprintf("u%d-in", i))
		out := nffg.ID(fmt.Sprintf("u%d-out", i))
		bl.SAP(in).SAP(out).
			Link("i", in, "1", nffg.ID(name+"-n0"), "3", 1e6, 1).
			Link("o", prev, "4", out, "1", 1e6, 1)
		lo, err := core.NewLocalOrchestrator(core.LocalConfig{
			ID: name, Substrate: bl.MustBuild(), Virtualizer: core.Transparent{},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := ro.Attach(context.Background(), lo); err != nil {
			b.Fatal(err)
		}
	}
	return ro
}

// benchE9Req builds a 1-NF unpinned chain on domain i's user-SAP pair (the
// reverse index narrows it to shard d<i>).
func benchE9Req(id string, i int) *nffg.NFFG {
	in := nffg.ID(fmt.Sprintf("u%d-in", i))
	out := nffg.ID(fmt.Sprintf("u%d-out", i))
	nf := nffg.ID(id + "-nf")
	return nffg.NewBuilder(id).SAP(in).SAP(out).
		NF(nf, "firewall", 2, nffg.Resources{CPU: 2, Mem: 512, Storage: 1}).
		Chain(id, 1, 0, in, nf, out).
		MustBuild()
}

// BenchmarkE9ReadPath measures the generation-keyed read path. Size sweep:
// View cost versus topology size (the steady state is a pointer return, so
// the cost is independent of size). Storm: concurrent readers hammering View
// while a writer churns commits — reads between commits still hit, and no
// reader ever blocks on a commit.
func BenchmarkE9ReadPath(b *testing.B) {
	ctx := context.Background()
	const domains = 8
	for _, nodes := range []int{16, 64, 256, 512} {
		b.Run(fmt.Sprintf("cached/nodes=%d", nodes), func(b *testing.B) {
			ro := benchE9RO(b, domains, nodes/domains)
			if _, err := ro.View(ctx); err != nil {
				b.Fatal(err) // warm: the steady state is what's measured
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ro.View(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "views/s")
		})
	}
	b.Run("storm/readers=8/nodes=64", func(b *testing.B) {
		ro := benchE9RO(b, domains, 64/domains)
		stop := make(chan struct{})
		var committer sync.WaitGroup
		committer.Add(1)
		go func() {
			defer committer.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("storm-%d", i)
				if _, err := ro.Install(ctx, benchE9Req(id, i%domains)); err == nil {
					_ = ro.Remove(ctx, id)
				}
			}
		}()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := ro.View(ctx); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		close(stop)
		committer.Wait()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "views/s")
		st := ro.PipelineStats()
		if total := st.ViewCache.Hits + st.ViewCache.Misses; total > 0 {
			b.ReportMetric(float64(st.ViewCache.Hits)/float64(total), "view-hit-rate")
		}
	})
}

// BenchmarkE9GlobalNarrowing measures what the reverse index buys the WRITE
// path: batches of unpinned-NF requests (one per domain, anchored only by
// their SAPs) each narrow to their SAP's shard, so disjoint groups plan and
// commit concurrently. groups/batch > 1 is the narrowing win: the batch does
// not serialize through one exclusive global group (or admission's global
// gate). ms/batch tracks the wall-clock effect, which scales with real cores.
//
// The transit case routes at the domain level: unpinned chains from domain c
// to domain c+2 of a ring, installed one at a time, whose shard set is the
// border path c, c+1, c+2. Each plans once on the domains its path crosses:
// escalations/install 0 and mappasses/install 1 (an estimate of the SAP
// anchors alone misses c+1, fails its plan and escalates every request to a
// full-DoV pass: 1 and 2).
func BenchmarkE9GlobalNarrowing(b *testing.B) {
	const domains = 8
	if runtime.GOMAXPROCS(0) < domains {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(domains))
	}
	b.Run(fmt.Sprintf("indexed/reqs=%d", domains), func(b *testing.B) {
		ro := benchE8RO(b, domains, core.ShardPerDomain)
		ctx := context.Background()
		before := ro.PipelineStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reqs := make([]*nffg.NFFG, domains)
			for c := range reqs {
				req := benchE8Req(fmt.Sprintf("e9n-%d-%d", i, c), c)
				for _, nfID := range req.NFIDs() {
					req.NFs.Get(nfID).Host = "" // unpinned: only the SAPs anchor it
				}
				reqs[c] = req
			}
			for c, o := range ro.InstallBatch(ctx, reqs, unify.BatchObserver{}) {
				if o.Err != nil {
					b.Fatal(c, o.Err)
				}
			}
			b.StopTimer()
			for _, req := range reqs {
				if err := ro.Remove(ctx, req.ID); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		st := ro.PipelineStats()
		installs := float64(st.Installs - before.Installs)
		b.ReportMetric(float64(st.Batches-before.Batches)/float64(b.N), "groups/batch")
		b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/batch")
		b.ReportMetric(float64(st.MapAttempts-before.MapAttempts)/installs, "mappasses/install")
	})
	b.Run(fmt.Sprintf("transit/reqs=%d", domains), func(b *testing.B) {
		ro := benchE9TransitRO(b, domains)
		ctx := context.Background()
		before := ro.PipelineStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ids := make([]string, domains)
			for c := range ids {
				ids[c] = fmt.Sprintf("e9t-%d-%d", i, c)
				in := nffg.ID(fmt.Sprintf("u%d-in", c))
				out := nffg.ID(fmt.Sprintf("u%d-out", (c+2)%domains))
				if _, err := ro.Install(ctx, benchE9Chain(ids[c], in, out)); err != nil {
					b.Fatal(c, err)
				}
			}
			b.StopTimer()
			for _, id := range ids {
				if err := ro.Remove(ctx, id); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		st := ro.PipelineStats()
		installs := float64(st.Installs - before.Installs)
		b.ReportMetric(float64(st.Escalations-before.Escalations)/installs, "escalations/install")
		b.ReportMetric(float64(st.MapAttempts-before.MapAttempts)/installs, "mappasses/install")
	})
}

// benchE9TransitRO builds a ring of domains d0..d<n-1> under one resource
// orchestrator: each is one BiS-BiS with a user SAP pair u<i>-in/u<i>-out,
// and border SAP x<i> joins d<i> to d<i+1>.
func benchE9TransitRO(b *testing.B, domains int) *core.ResourceOrchestrator {
	b.Helper()
	ro := core.NewResourceOrchestrator(core.Config{ID: "ro"})
	for i := 0; i < domains; i++ {
		name := fmt.Sprintf("d%d", i)
		node := nffg.ID(name + "-n")
		left := nffg.ID(fmt.Sprintf("x%d", (i+domains-1)%domains))
		right := nffg.ID(fmt.Sprintf("x%d", i))
		in := nffg.ID(fmt.Sprintf("u%d-in", i))
		out := nffg.ID(fmt.Sprintf("u%d-out", i))
		sub := nffg.NewBuilder(name).
			BiSBiS(node, name, 4, nffg.Resources{CPU: 1 << 20, Mem: 1 << 30, Storage: 1 << 20},
				"firewall", "dpi", "nat").
			SAP(left).SAP(right).SAP(in).SAP(out).
			Link("l", left, "1", node, "1", 1e6, 1).
			Link("r", node, "2", right, "1", 1e6, 1).
			Link("i", in, "1", node, "3", 1e6, 1).
			Link("o", node, "4", out, "1", 1e6, 1).
			MustBuild()
		lo, err := core.NewLocalOrchestrator(core.LocalConfig{ID: name, Substrate: sub})
		if err != nil {
			b.Fatal(err)
		}
		if err := ro.Attach(context.Background(), lo); err != nil {
			b.Fatal(err)
		}
	}
	return ro
}

// benchE9Chain builds an unpinned firewall -> dpi -> nat chain from in to out.
func benchE9Chain(id string, in, out nffg.ID) *nffg.NFFG {
	bl := nffg.NewBuilder(id).SAP(in).SAP(out)
	nodes := []nffg.ID{in}
	for k, typ := range []string{"firewall", "dpi", "nat"} {
		nf := nffg.ID(fmt.Sprintf("%s-nf%d", id, k))
		bl.NF(nf, typ, 2, nffg.Resources{CPU: 2, Mem: 512, Storage: 1})
		nodes = append(nodes, nf)
	}
	return bl.Chain(id, 1, 0, append(nodes, out)...).MustBuild()
}

// --- E10: multi-tenant weighted-fair admission ----------------------------------

// benchE10Layer is a plain layer (no BatchInstaller, no Sharder) with a fixed
// install latency: E10 measures ADMISSION SCHEDULING, so the layer below is
// deliberately trivial and every job costs the same.
type benchE10Layer struct {
	delay time.Duration

	mu       sync.Mutex
	services map[string]bool
}

func (d *benchE10Layer) ID() string { return "e10" }
func (d *benchE10Layer) View(context.Context) (*nffg.NFFG, error) {
	return nffg.New("e10-view"), nil
}
func (d *benchE10Layer) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	select {
	case <-time.After(d.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	d.mu.Lock()
	d.services[req.ID] = true
	d.mu.Unlock()
	return &unify.Receipt{ServiceID: req.ID}, nil
}
func (d *benchE10Layer) Remove(_ context.Context, id string) error {
	d.mu.Lock()
	delete(d.services, id)
	d.mu.Unlock()
	return nil
}
func (d *benchE10Layer) Services() []string { return nil }

// BenchmarkE10FairAdmission measures the fairness tentpole: an "elephant"
// tenant parks a deep backlog, then N mouse tenants each submit one job.
// Under the FIFO baseline every mouse strictly waits out the whole elephant
// backlog (elephants-before-mouse = the backlog size, mouse p95 wait =
// O(backlog drain)); under the weighted-fair scheduler each mouse is
// guaranteed its share of the very next scheduling round (elephants-before-
// mouse = one in-flight window, mouse wait = near-isolated latency), while
// aggregate throughput stays within a few percent — the same number of jobs
// drain through the same in-flight budget either way.
//
// elephants-before-mouse counts elephant jobs dispatched strictly before the
// first mouse dispatch: a scheduling-ORDER counter, robust to runner timing
// noise (FIFO pins it at the backlog size; DWRR at the first window).
func BenchmarkE10FairAdmission(b *testing.B) {
	const (
		backlog        = 64
		mice           = 8
		installLatency = 2 * time.Millisecond
		window         = 4 // MaxBatch and the per-tenant in-flight budget
	)
	ctx := context.Background()
	for _, mode := range []string{"fifo", "dwrr"} {
		b.Run(fmt.Sprintf("%s/backlog=%d/mice=%d", mode, backlog, mice), func(b *testing.B) {
			var mouseWaits []time.Duration
			var elephantsBefore, jobs float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer := &benchE10Layer{delay: installLatency, services: map[string]bool{}}
				q := admission.New(layer, admission.Options{
					MaxBatch:          window,
					TenantMaxInFlight: window,
					DisableFairness:   mode == "fifo",
				})
				ectx := unify.WithMeta(ctx, unify.RequestMeta{Tenant: "elephant"})
				eIDs := make([]string, backlog)
				for e := 0; e < backlog; e++ {
					j, err := q.Submit(ectx, nffg.New(fmt.Sprintf("e10-%s-%d-e%d", mode, i, e)))
					if err != nil {
						b.Fatal(err)
					}
					eIDs[e] = j.ID
				}
				mIDs := make([]string, mice)
				for m := 0; m < mice; m++ {
					mctx := unify.WithMeta(ctx, unify.RequestMeta{Tenant: fmt.Sprintf("mouse%d", m)})
					j, err := q.Submit(mctx, nffg.New(fmt.Sprintf("e10-%s-%d-m%d", mode, i, m)))
					if err != nil {
						b.Fatal(err)
					}
					mIDs[m] = j.ID
				}
				var firstMouse time.Time
				for _, id := range mIDs {
					j, err := q.Wait(ctx, id)
					if err != nil || j.State != admission.StateDeployed {
						b.Fatalf("mouse job %s: %v %v", id, j.State, err)
					}
					mouseWaits = append(mouseWaits, j.Started.Sub(j.Submitted))
					if firstMouse.IsZero() || j.Started.Before(firstMouse) {
						firstMouse = j.Started
					}
				}
				for _, id := range eIDs {
					j, err := q.Wait(ctx, id)
					if err != nil || j.State != admission.StateDeployed {
						b.Fatalf("elephant job %s: %v %v", id, j.State, err)
					}
					if j.Started.Before(firstMouse) {
						elephantsBefore++
					}
				}
				jobs += backlog + mice
				q.Close()
			}
			b.StopTimer()
			sort.Slice(mouseWaits, func(i, k int) bool { return mouseWaits[i] < mouseWaits[k] })
			p95 := mouseWaits[(len(mouseWaits)*95+99)/100-1]
			b.ReportMetric(float64(p95.Microseconds())/1000, "mouse-p95-ms")
			b.ReportMetric(elephantsBefore/float64(b.N), "elephants-before-mouse")
			b.ReportMetric(jobs/b.Elapsed().Seconds(), "installs/s")
		})
	}
}

// --- E11: pipelined southbound programming ----------------------------------

// delayLine injects one-way latency on a net.Conn's writes: data is
// timestamped on Write and released to the wire after the delay, so pipelined
// messages overlap their latency while request/reply exchanges pay it in
// full. Wrapping the agent side delays the reply direction, which is where a
// barrier-per-rule protocol spends its time.
type delayLine struct {
	net.Conn
	delay time.Duration
	ch    chan delayChunk
	done  chan struct{}
	once  sync.Once
}

type delayChunk struct {
	at time.Time
	b  []byte
}

func newDelayLine(c net.Conn, delay time.Duration) *delayLine {
	d := &delayLine{Conn: c, delay: delay, ch: make(chan delayChunk, 8192), done: make(chan struct{})}
	go d.pump()
	return d
}

func (d *delayLine) Write(p []byte) (int, error) {
	buf := append([]byte(nil), p...)
	select {
	case d.ch <- delayChunk{at: time.Now().Add(d.delay), b: buf}:
		return len(p), nil
	case <-d.done:
		return 0, net.ErrClosed
	}
}

func (d *delayLine) Close() error {
	d.once.Do(func() { close(d.done) })
	return d.Conn.Close()
}

func (d *delayLine) pump() {
	for {
		select {
		case c := <-d.ch:
			if wait := time.Until(c.at); wait > 0 {
				time.Sleep(wait)
			}
			if _, err := d.Conn.Write(c.b); err != nil {
				return
			}
		case <-d.done:
			return
		}
	}
}

// BenchmarkE11SouthboundPipeline measures what the pipelined southbound path
// buys on a 1000-rule delta when every switch reply costs a real network
// round-trip (1ms injected one-way on the reply direction):
//
//	serial    — FlowMod+barrier per rule: ~rules×rtt wall-clock, 1 flowmod/barrier
//	pipelined — stream + one barrier: ~1×rtt wall-clock, rules flowmods/barrier
//	speedup   — serial/pipelined wall-clock ratio on the same delta
//	netconf   — NF-lifecycle deltas coalesce to exactly 1 NETCONF RPC/delta
//
// The deterministic amortization counters (flowmods/barrier, barriers/delta,
// rpcs/delta) gate CI; the wall-clock ratio is latency-dominated and gated
// with a wide band.
func BenchmarkE11SouthboundPipeline(b *testing.B) {
	const e11Rules = 1000
	const rtt = time.Millisecond

	setup := func(b *testing.B) (*openflow.Controller, func()) {
		b.Helper()
		eng := dataplane.NewEngine()
		sw := dataplane.NewSwitch(eng, "e11-sw")
		ctrl := openflow.NewController()
		addr, err := ctrl.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			ctrl.Close()
			b.Fatal(err)
		}
		ag := openflow.NewSwitchAgent("e11-sw", sw, []uint16{1, 2})
		if err := ag.ConnectConn(newDelayLine(nc, rtt)); err != nil {
			ctrl.Close()
			b.Fatal(err)
		}
		if err := ctrl.WaitForSwitches(1, 5*time.Second); err != nil {
			ctrl.Close()
			b.Fatal(err)
		}
		return ctrl, func() { ag.Close(); ctrl.Close() }
	}
	fm := func(r int) *openflow.FlowMod {
		return &openflow.FlowMod{
			Cmd: openflow.FlowAdd, RuleID: fmt.Sprintf("r%d", r),
			Priority: 10, InPort: 1, AnyTag: true, OutPort: 2,
		}
	}
	serialDelta := func(b *testing.B, ctrl *openflow.Controller) time.Duration {
		b.Helper()
		start := time.Now()
		for r := 0; r < e11Rules; r++ {
			if err := ctrl.FlowMod(context.Background(), "e11-sw", fm(r)); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	pipelinedDelta := func(b *testing.B, ctrl *openflow.Controller) time.Duration {
		b.Helper()
		start := time.Now()
		p, err := ctrl.Pipeline("e11-sw")
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < e11Rules; r++ {
			if err := p.Send(context.Background(), fmt.Sprintf("r%d", r), fm(r)); err != nil {
				b.Fatal(err)
			}
		}
		if err := p.Flush(context.Background()); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}

	b.Run(fmt.Sprintf("serial/rules=%d/rtt=1ms", e11Rules), func(b *testing.B) {
		ctrl, cleanup := setup(b)
		defer cleanup()
		b.ResetTimer()
		var d time.Duration
		for i := 0; i < b.N; i++ {
			d = serialDelta(b, ctrl)
		}
		b.StopTimer()
		c := ctrl.Counters()
		b.ReportMetric(float64(c.FlowMods)/float64(c.Barriers), "flowmods/barrier")
		b.ReportMetric(float64(d.Milliseconds()), "ms/delta")
	})
	b.Run(fmt.Sprintf("pipelined/rules=%d/rtt=1ms", e11Rules), func(b *testing.B) {
		ctrl, cleanup := setup(b)
		defer cleanup()
		b.ResetTimer()
		var d time.Duration
		for i := 0; i < b.N; i++ {
			d = pipelinedDelta(b, ctrl)
		}
		b.StopTimer()
		c := ctrl.Counters()
		b.ReportMetric(float64(c.FlowMods)/float64(c.Barriers), "flowmods/barrier")
		b.ReportMetric(float64(c.Barriers)/float64(b.N), "barriers/delta")
		b.ReportMetric(float64(d.Microseconds())/1000, "ms/delta")
	})
	b.Run(fmt.Sprintf("speedup/rules=%d/rtt=1ms", e11Rules), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctrl, cleanup := setup(b)
			serial := serialDelta(b, ctrl)
			pipelined := pipelinedDelta(b, ctrl)
			cleanup()
			b.ReportMetric(serial.Seconds()/pipelined.Seconds(), "speedup")
		}
	})
	b.Run("netconf/nfs=2", func(b *testing.B) {
		sub := nffg.NewBuilder("e11-mn").
			BiSBiS("mn-s1", "mininet", 4, nffg.Resources{CPU: 64, Mem: 65536, Storage: 64}, "firewall", "nat").
			SAP("sapA").SAP("sapB").
			Link("u1", "sapA", "1", "mn-s1", "1", 100, 1).
			Link("u2", "mn-s1", "2", "sapB", "1", 100, 1).
			MustBuild()
		d, err := mininet.New(mininet.Config{ID: "e11-mn", Substrate: sub})
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := fmt.Sprintf("e11svc%d", i)
			req := nffg.NewBuilder(id).
				SAP("sapA").SAP("sapB").
				NF(nffg.ID(id+"-fw"), "firewall", 2, nffg.Resources{CPU: 1, Mem: 256, Storage: 1}).
				NF(nffg.ID(id+"-nat"), "nat", 2, nffg.Resources{CPU: 1, Mem: 256, Storage: 1}).
				Chain(id, 10, 0, "sapA", nffg.ID(id+"-fw"), nffg.ID(id+"-nat"), "sapB").
				MustBuild()
			if _, err := d.Install(context.Background(), req); err != nil {
				b.Fatal(err)
			}
			if err := d.Remove(context.Background(), id); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := d.SouthboundStats()
		b.ReportMetric(float64(st.NetconfRPCs)/float64(st.Deltas), "rpcs/delta")
		b.ReportMetric(st.FlowModsPerBarrier(), "flowmods/barrier")
	})
}

// --- E12: observability overhead ------------------------------------------------

// processCPU is the CPU time the process has used so far, user and system.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// benchE12Burst drives one burst of `clients` concurrent submit+wait cycles
// through the admission queue (the E7 batched-admission workload) and returns
// the burst's wall-clock and the CPU time the process spent in it, plus one
// deployed job for the span audit. Teardown of the deployed services happens
// outside the measured window.
func benchE12Burst(b *testing.B, q *admission.Queue, ro *core.ResourceOrchestrator, domains, clients int, tag string) (time.Duration, time.Duration, admission.Job) {
	b.Helper()
	ctx := context.Background()
	start := make(chan struct{})
	jobs := make([]admission.Job, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			req := benchE7Req(fmt.Sprintf("e12-%s-%d", tag, c), c%domains, c/domains)
			job, err := q.Submit(ctx, req)
			if err != nil {
				errs[c] = err
				return
			}
			done, err := q.Wait(ctx, job.ID)
			if err == nil && done.State != admission.StateDeployed {
				err = fmt.Errorf("job %s: %s (%s)", done.ID, done.State, done.Error)
			}
			jobs[c], errs[c] = done, err
		}(c)
	}
	t0, cpu0 := time.Now(), processCPU(b)
	close(start)
	wg.Wait()
	d, cpu := time.Since(t0), processCPU(b)-cpu0
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	for c := 0; c < clients; c++ {
		if err := ro.Remove(ctx, fmt.Sprintf("e12-%s-%d", tag, c)); err != nil {
			b.Fatal(err)
		}
	}
	return d, cpu, jobs[0]
}

// BenchmarkE12ObsOverhead measures what the observability plane costs on the
// hot path: the E7 batched-admission workload (16 concurrent submitters over
// 8 domains, expensive ranking) with per-job span tracing and stage
// histograms off versus on. Each mode runs several bursts and keeps the
// fastest (min is robust to runner noise); the overhead sub-benchmark runs
// both modes back to back and reports
//
//	overhead_pct   — traced-vs-untraced CPU time per burst, gated ≤5% in CI
//	span-kinds/job — how many of the expected span kinds the last job's trace
//	                 actually recorded (admission wait, map, commit, child
//	                 deploy, plus the job root): a deterministic
//	                 instrumentation-coverage counter, gated at 5
func BenchmarkE12ObsOverhead(b *testing.B) {
	const domains, clients, rounds = 8, 16, 4
	// Overlapping submitters are the point; see BenchmarkE7BatchedAdmission.
	if runtime.GOMAXPROCS(0) < 8 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	}
	slots := (clients + domains - 1) / domains
	spanKinds := []string{"job", "admission.wait", "orchestrator.map", "orchestrator.commit", "deploy.child"}

	run := func(b *testing.B, tracer *obs.Tracer, tag string) (time.Duration, admission.Job) {
		b.Helper()
		ro := benchE7RO(b, domains, slots)
		q := admission.New(ro, admission.Options{
			MaxBatch: clients,
			Tracer:   tracer,
		})
		defer q.Close()
		best := time.Duration(1 << 62)
		var last admission.Job
		for r := 0; r < rounds; r++ {
			d, _, job := benchE12Burst(b, q, ro, domains, clients, fmt.Sprintf("%s-%d", tag, r))
			if d < best {
				best = d
			}
			last = job
		}
		return best, last
	}

	for _, mode := range []string{"off", "on"} {
		b.Run(fmt.Sprintf("tracing=%s/clients=%d", mode, clients), func(b *testing.B) {
			var tracer *obs.Tracer
			if mode == "on" {
				tracer = obs.NewTracer(0)
			}
			var best time.Duration = 1 << 62
			for i := 0; i < b.N; i++ {
				d, _ := run(b, tracer, fmt.Sprintf("%s-%d", mode, i))
				if d < best {
					best = d
				}
			}
			b.ReportMetric(float64(clients)/best.Seconds(), "installs/s")
		})
	}

	b.Run(fmt.Sprintf("overhead/clients=%d", clients), func(b *testing.B) {
		// The two stacks live side by side and their bursts alternate, each
		// round in the other order, so a slow patch of the runner penalizes
		// both modes instead of skewing the ratio. A burst is charged the CPU
		// time the process spends in it, from a collected heap: tracing costs
		// work, and unlike wall-clock, work does not stretch when a neighbour
		// takes the runner's cores or the scheduler parks a submitter.
		tracer := obs.NewTracer(0)
		mkStack := func(tr *obs.Tracer) (*core.ResourceOrchestrator, *admission.Queue) {
			ro := benchE7RO(b, domains, slots)
			q := admission.New(ro, admission.Options{
				MaxBatch: clients,
				Tracer:   tr,
			})
			return ro, q
		}
		roOff, qOff := mkStack(nil)
		defer qOff.Close()
		roOn, qOn := mkStack(tracer)
		defer qOn.Close()
		const altRounds = 31 // first round is warmup, median of the rest
		for i := 0; i < b.N; i++ {
			var ratios []float64
			var job admission.Job
			burst := func(q *admission.Queue, ro *core.ResourceOrchestrator, tag string, r int) time.Duration {
				runtime.GC()
				_, cpu, j := benchE12Burst(b, q, ro, domains, clients, fmt.Sprintf("%s-%d-%d", tag, i, r))
				if q == qOn {
					job = j
				}
				return cpu
			}
			for r := 0; r < altRounds; r++ {
				var cpuOff, cpuOn time.Duration
				if r%2 == 0 {
					cpuOff = burst(qOff, roOff, "base", r)
					cpuOn = burst(qOn, roOn, "traced", r)
				} else {
					cpuOn = burst(qOn, roOn, "traced", r)
					cpuOff = burst(qOff, roOff, "base", r)
				}
				if r == 0 {
					continue
				}
				ratios = append(ratios, cpuOn.Seconds()/cpuOff.Seconds())
			}
			sort.Float64s(ratios)
			median := ratios[len(ratios)/2]
			b.ReportMetric((median-1)*100, "overhead_pct")
			trace := tracer.Lookup(job.TraceID)
			if trace == nil {
				b.Fatalf("job %s has no trace", job.ID)
			}
			have := map[string]bool{}
			for _, s := range trace.Snapshot().Spans {
				have[s.Name] = true
			}
			kinds := 0
			for _, k := range spanKinds {
				if have[k] {
					kinds++
				}
			}
			b.ReportMetric(float64(kinds), "span-kinds/job")
		}
	})
}
