// Command experiments runs the full parameter sweeps behind EXPERIMENTS.md
// and prints paper-style tables: acceptance-vs-load curves for the mapping
// algorithms (E2), the decomposition benefit across load (E4), view
// computation scaling (E1) and recursion overhead (E3). Unlike the
// bench_test.go micro-benchmarks, these sweeps show whole curves including
// the crossover points.
//
//	go run ./cmd/experiments            # all experiments
//	go run ./cmd/experiments -run e2    # one experiment
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/decomp"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

func main() {
	log.SetFlags(0)
	run := flag.String("run", "all", "experiment to run: e1 | e2 | e3 | e4 | scenario | all")
	domains := flag.Int("domains", 100, "scenario: number of technology domains")
	saps := flag.Int("saps", 10, "scenario: SAPs per domain")
	services := flag.Int("services", 400, "scenario: service requests submitted")
	churn := flag.Float64("churn", 0.5, "scenario: fraction of deployed services removed again")
	mice := flag.Float64("mice", 0.5, "scenario: fraction of requests from mice tenants")
	clients := flag.Int("clients", 64, "scenario: concurrent submitting clients")
	flaps := flag.Int("flaps", 0, "scenario: domains killed under load in the flap phase (0 = no flap phase)")
	flapSvcs := flag.Int("flap-services", 4, "scenario: services pinned on each flap victim")
	out := flag.String("out", "BENCH_SCENARIO_SLO.json", "scenario: SLO artifact path (empty = stdout only)")
	flag.Parse()
	switch *run {
	case "e1":
		e1()
	case "e2":
		e2()
	case "e3":
		e3()
	case "e4":
		e4()
	case "scenario":
		scenario(ScenarioConfig{
			Domains:   *domains,
			SAPs:      *saps,
			Services:  *services,
			Churn:     *churn,
			MiceShare: *mice,
			Clients:   *clients,
			Flaps:     *flaps,
			FlapSvcs:  *flapSvcs,
		}, *out)
	case "all":
		e1()
		e2()
		e3()
		e4()
	default:
		log.Fatalf("unknown experiment %q", *run)
	}
}

func header(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("-", 72))
	fmt.Println(title)
	fmt.Println(strings.Repeat("-", 72))
}

// ringDov builds the synthetic substrate used by the sweeps: n BiS-BiS in a
// ring across d domains, one user SAP per domain.
func ringDov(n, d int) *nffg.NFFG {
	b := nffg.NewBuilder(fmt.Sprintf("dov-%d-%d", n, d))
	var nodes []nffg.ID
	for i := 0; i < n; i++ {
		id := nffg.ID(fmt.Sprintf("bb%03d", i))
		b.BiSBiS(id, fmt.Sprintf("dom%d", i%d), 6,
			nffg.Resources{CPU: 16, Mem: 16384, Storage: 128},
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

func sapPair(j, nSaps int) (nffg.ID, nffg.ID) {
	stride := 1 + j/nSaps
	a := j % nSaps
	c := (a + stride) % nSaps
	if c == a {
		c = (a + 1) % nSaps
	}
	return nffg.ID(fmt.Sprintf("sap%d", a)), nffg.ID(fmt.Sprintf("sap%d", c))
}

func chainReq(id string, sapA, sapB nffg.ID, k int, bw float64) *nffg.NFFG {
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

// --- E1: view computation scaling ---------------------------------------------

func e1() {
	header("E1 — virtualization view computation vs. resource-view size")
	fmt.Printf("%-8s %-14s %-14s %-14s\n", "nodes", "transparent", "domain-bisbis", "single-bisbis")
	for _, n := range []int{4, 16, 64, 256} {
		dov := ringDov(n, 4)
		row := fmt.Sprintf("%-8d", n)
		for _, virt := range []core.Virtualizer{core.Transparent{}, core.DomainBiSBiS{}, core.SingleBiSBiS{}} {
			const reps = 50
			start := time.Now()
			for i := 0; i < reps; i++ {
				if _, err := virt.View(dov); err != nil {
					log.Fatal(err)
				}
			}
			row += fmt.Sprintf(" %-13s", time.Since(start)/reps)
		}
		fmt.Println(row)
	}
	fmt.Println("shape: micro/millisecond views; single-BiSBiS cheapest, all near-linear")
}

// --- E2: acceptance vs offered load, per algorithm ------------------------------

func e2() {
	header("E2 — acceptance ratio vs. offered load (12-node ring, 8 SAPs, 150 Mbit chains)")
	algs := []*embed.Mapper{embed.NewDefault(), embed.NewFirstFit(), embed.NewRandom(7)}
	loads := []int{8, 16, 24, 32, 40, 48}
	fmt.Printf("%-10s", "load")
	for _, alg := range algs {
		fmt.Printf(" %12s", alg.Name())
	}
	fmt.Println()
	for _, load := range loads {
		fmt.Printf("%-10d", load)
		for _, alg := range algs {
			sub := ringDov(12, 8)
			accepted := 0
			for j := 0; j < load; j++ {
				sapA, sapB := sapPair(j, 8)
				req := chainReq(fmt.Sprintf("l%d", j), sapA, sapB, 2, 150)
				mp, err := alg.Map(sub, req)
				if err != nil {
					continue
				}
				cfg, err := embed.Apply(sub, mp)
				if err != nil {
					continue
				}
				sub = cfg
				accepted++
			}
			fmt.Printf(" %11.1f%%", float64(accepted)/float64(load)*100)
		}
		fmt.Println()
	}
	fmt.Println("shape: all algorithms accept everything at low load; under saturation the")
	fmt.Println("backtracking mapper sustains the highest acceptance")
}

// --- E3: recursion overhead ------------------------------------------------------

func e3() {
	header("E3 — deployment latency vs. orchestration depth (install+remove cycle)")
	fmt.Printf("%-10s %-14s %-14s\n", "layers", "cycle", "per-layer")
	var prev time.Duration
	for depth := 0; depth <= 4; depth++ {
		top := stack(depth)
		const reps = 50
		start := time.Now()
		for i := 0; i < reps; i++ {
			req := chainReq(fmt.Sprintf("svc%d-%d", depth, i), "sap0", "sap1", 2, 5)
			if _, err := top.Install(context.Background(), req); err != nil {
				log.Fatal(err)
			}
			if err := top.Remove(context.Background(), req.ID); err != nil {
				log.Fatal(err)
			}
		}
		cycle := time.Since(start) / reps
		delta := ""
		if depth > 0 {
			delta = fmt.Sprint(cycle - prev)
		}
		fmt.Printf("%-10d %-14s %-14s\n", depth, cycle, delta)
		prev = cycle
	}
	fmt.Println("shape: linear growth, tens of microseconds per layer")
}

func stack(depth int) unify.Layer {
	sub := ringDov(4, 2)
	lo, err := core.NewLocalOrchestrator(core.LocalConfig{ID: "leaf", Substrate: sub})
	if err != nil {
		log.Fatal(err)
	}
	var top unify.Layer = lo
	for i := 1; i <= depth; i++ {
		ro := core.NewResourceOrchestrator(core.Config{
			ID:          fmt.Sprintf("layer%d", i),
			Virtualizer: core.SingleBiSBiS{NodeID: nffg.ID(fmt.Sprintf("bisbis@l%d", i))},
		})
		if err := ro.Attach(context.Background(), top.(domain.Domain)); err != nil {
			log.Fatal(err)
		}
		top = ro
	}
	return top
}

// --- E4: decomposition benefit vs load -------------------------------------------

func e4() {
	header("E4 — acceptance with/without NF decomposition vs. offered load")
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
		log.Fatal(err)
	}
	mkSub := func() *nffg.NFFG {
		sub := ringDov(8, 8)
		for _, id := range sub.InfraIDs() {
			i := sub.Infras.Get(id)
			i.Supported = append(i.Supported, "secure-gw")
		}
		return sub
	}
	mkReq := func(j int) *nffg.NFFG {
		id := fmt.Sprintf("gw%d", j)
		sapA, sapB := sapPair(j, 8)
		return nffg.NewBuilder(id).
			SAP(sapA).SAP(sapB).
			NF(nffg.ID(id+"-gw"), "secure-gw", 2, nffg.Resources{CPU: 10, Mem: 8192, Storage: 32}).
			Chain(id, 20, 0, sapA, nffg.ID(id+"-gw"), sapB).
			MustBuild()
	}
	fmt.Printf("%-10s %14s %14s\n", "load", "monolithic", "decomposed")
	for _, load := range []int{4, 8, 12, 16, 20} {
		row := fmt.Sprintf("%-10d", load)
		for _, rs := range []*decomp.Rules{nil, rules} {
			alg := embed.New(embed.Options{MaxBacktrack: 64, Decomp: rs})
			sub := mkSub()
			accepted := 0
			for j := 0; j < load; j++ {
				mp, err := alg.Map(sub, mkReq(j))
				if err != nil {
					continue
				}
				cfg, err := embed.Apply(sub, mp)
				if err != nil {
					continue
				}
				sub = cfg
				accepted++
			}
			row += fmt.Sprintf(" %13.1f%%", float64(accepted)/float64(load)*100)
		}
		fmt.Println(row)
	}
	fmt.Println("shape: identical at low load; decomposition pulls ahead once 10-CPU")
	fmt.Println("monoliths start stranding capacity on 16-CPU nodes ([2]'s result)")
}
