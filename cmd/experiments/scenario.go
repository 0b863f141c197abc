package main

// The scenario generator: a synthetic multi-domain deployment at paper scale
// and beyond — hundreds of technology domains under one resource
// orchestrator, thousands of SAPs, an elephant/mice tenant mix and
// install/remove churn — measuring the admission-to-deployed SLO
// distribution (p50/p95/p99) end to end: queue wait, batched mapping,
// sharded commit and the (modeled) southbound programming of every touched
// domain. Results are written as a JSON artifact for the BENCH_*/benchcheck
// CI pipeline:
//
//	go run ./cmd/experiments -domains 100 -saps 10 -services 400
//	go run ./cmd/experiments -out BENCH_SCENARIO_SLO.json
//
// With -flaps N the run appends a domain-flap phase: a fleet controller
// probes every member, N victim domains are killed one after another under
// survivor load, and the artifact gains a "failover" section — services
// rehomed, requests lost on disjoint tenants (the SLO is zero), and the
// kill-to-rehomed latency distribution.

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/fleet"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/obs"
	"github.com/unify-repro/escape/internal/unify"
)

// ScenarioConfig parameterizes one scenario run.
type ScenarioConfig struct {
	Domains   int     `json:"domains"`                 // leaf orchestrators under the RO
	SAPs      int     `json:"saps"`                    // SAPs per domain
	Services  int     `json:"services"`                // install jobs submitted
	Churn     float64 `json:"churn"`                   // fraction of deployed services also removed
	MiceShare float64 `json:"mice_share"`              // fraction of jobs from mice tenants
	Clients   int     `json:"clients"`                 // concurrent submitting clients
	Flaps     int     `json:"flaps,omitempty"`         // domains killed in the flap phase
	FlapSvcs  int     `json:"flap_services,omitempty"` // services pinned on each victim
}

// SLOSummary is one class's admission-to-deployed latency distribution.
type SLOSummary struct {
	Count  int     `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// FailoverSLO is the artifact section of the domain-flap phase: what the
// fleet controller delivered while victims were being killed under load.
type FailoverSLO struct {
	Flaps           int `json:"flaps"`
	PinnedPerFlap   int `json:"pinned_per_flap"`
	Evictions       int `json:"evictions"`
	ServicesRehomed int `json:"services_rehomed"`
	// RehomeFailures counts displaced services that could not land on a
	// survivor — services whose only access SAPs died with their domain.
	RehomeFailures int `json:"rehome_failures"`
	// SurvivorRequests / RequestsLost is the disjoint-tenant SLO: requests
	// touching only surviving domains during the failover windows, and how
	// many of them failed (the target is exactly zero).
	SurvivorRequests int        `json:"survivor_requests"`
	RequestsLost     int        `json:"requests_lost"`
	TimeToRehomedMs  SLOSummary `json:"time_to_rehomed_ms"`
}

// ScenarioReport is the JSON artifact of one run. SLO is the per-class
// end-to-end distribution (measured per job); Stages decomposes it into the
// pipeline stages (admission wait, map, commit, southbound delta, e2e) from
// the control plane's own histograms.
type ScenarioReport struct {
	Scenario   ScenarioConfig        `json:"scenario"`
	Submitted  int                   `json:"submitted"`
	Deployed   int                   `json:"deployed"`
	Failed     int                   `json:"failed"`
	Removed    int                   `json:"removed"`
	WallClockS float64               `json:"wall_clock_s"`
	SLO        map[string]SLOSummary `json:"slo"`
	Stages     map[string]SLOSummary `json:"stages"`
	Southbound core.SouthboundStats  `json:"southbound"`
	Admission  admission.Stats       `json:"admission"`
	Failover   *FailoverSLO          `json:"failover,omitempty"`
}

// summarize computes the percentile summary of a latency sample.
func summarize(samples []time.Duration) SLOSummary {
	if len(samples) == 0 {
		return SLOSummary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pct := func(p int) float64 {
		idx := (len(samples)*p + 99) / 100
		if idx < 1 {
			idx = 1
		}
		return float64(samples[idx-1].Microseconds()) / 1000
	}
	var total time.Duration
	for _, s := range samples {
		total += s
	}
	return SLOSummary{
		Count:  len(samples),
		P50Ms:  pct(50),
		P95Ms:  pct(95),
		P99Ms:  pct(99),
		MeanMs: float64((total / time.Duration(len(samples))).Microseconds()) / 1000,
		MaxMs:  float64(samples[len(samples)-1].Microseconds()) / 1000,
	}
}

// summarizeHist converts a stage histogram into the same summary shape as
// the per-job samples. Quantiles are bucket upper bounds (power-of-two
// buckets), MaxMs the upper bound of the last occupied bucket.
func summarizeHist(h obs.HistogramSnapshot) SLOSummary {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return SLOSummary{
		Count:  int(h.Count),
		P50Ms:  ms(h.Quantile(0.50)),
		P95Ms:  ms(h.Quantile(0.95)),
		P99Ms:  ms(h.Quantile(0.99)),
		MeanMs: ms(h.Mean()),
		MaxMs:  ms(h.Quantile(1)),
	}
}

// scenarioLeafSubstrate is one domain: a single BiS-BiS with its user SAPs,
// plus `flapSlots` fleet-shared SAP pairs (the same SAP IDs on every member)
// so a service displaced by a domain kill can re-embed on any survivor.
func scenarioLeafSubstrate(dom, saps, flapSlots int) *nffg.NFFG {
	bb := nffg.ID(fmt.Sprintf("bb%03d", dom))
	b := nffg.NewBuilder(fmt.Sprintf("dom%03d-sub", dom)).
		BiSBiS(bb, fmt.Sprintf("dom%03d", dom), saps+2+2*flapSlots,
			nffg.Resources{CPU: 64, Mem: 65536, Storage: 256},
			"firewall", "dpi", "nat", "compress")
	for s := 0; s < saps; s++ {
		sap := nffg.ID(fmt.Sprintf("d%03ds%d", dom, s))
		b.SAP(sap)
		b.Link(fmt.Sprintf("u%03d-%d", dom, s), sap, "1", bb, fmt.Sprint(s+1), 1000, 0.5)
	}
	for f := 0; f < flapSlots; f++ {
		in := nffg.ID(fmt.Sprintf("fp%din", f))
		out := nffg.ID(fmt.Sprintf("fp%dout", f))
		b.SAP(in).SAP(out).
			Link(fmt.Sprintf("fi%d", f), in, "1", bb, fmt.Sprint(saps+1+2*f), 1000, 0.5).
			Link(fmt.Sprintf("fo%d", f), bb, fmt.Sprint(saps+2+2*f), out, "1", 1000, 0.5)
	}
	return b.MustBuild()
}

// flapLeaf wraps a modeled leaf with a kill switch: a killed member refuses
// probes, views and installs, like a kill -9'd process behind a dead peer.
type flapLeaf struct {
	*core.LocalOrchestrator
	dead atomic.Bool
}

var errFlapDead = fmt.Errorf("scenario: connection refused")

// Ping implements fleet.Pinger, the prober's cheap liveness check.
func (l *flapLeaf) Ping(context.Context) error {
	if l.dead.Load() {
		return errFlapDead
	}
	return nil
}

func (l *flapLeaf) View(ctx context.Context) (*nffg.NFFG, error) {
	if l.dead.Load() {
		return nil, errFlapDead
	}
	return l.LocalOrchestrator.View(ctx)
}

func (l *flapLeaf) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	if l.dead.Load() {
		return nil, errFlapDead
	}
	return l.LocalOrchestrator.Install(ctx, req)
}

func (l *flapLeaf) Remove(ctx context.Context, id string) error {
	if l.dead.Load() {
		return errFlapDead
	}
	return l.LocalOrchestrator.Remove(ctx, id)
}

// buildScenarioStack assembles the RO over cfg.Domains modeled leaves. Each
// leaf's Programmer charges a pipelined southbound cost — one barrier RTT per
// delta plus a small per-operation term — and records its operations (the
// leaf times the delta), so the aggregated southbound counters behave like
// the real adapters' without paying hundreds of protocol servers in one
// process.
func buildScenarioStack(cfg ScenarioConfig) (*core.ResourceOrchestrator, []*flapLeaf, error) {
	ro := core.NewResourceOrchestrator(core.Config{
		ID:          "scenario-ro",
		Virtualizer: core.Transparent{},
	})
	const (
		barrierRTT = 200 * time.Microsecond
		perOp      = 2 * time.Microsecond
	)
	// Each flap needs its own fleet-shared slot set: slots stay occupied by
	// the rehomed services of earlier flaps.
	flapSlots := cfg.Flaps * cfg.FlapSvcs
	leaves := make([]*flapLeaf, cfg.Domains)
	for i := 0; i < cfg.Domains; i++ {
		var lo *core.LocalOrchestrator
		prog := core.ProgrammerFunc(func(_ context.Context, delta *nffg.Delta, _ *nffg.NFFG) error {
			addNF, delNF, addR, delR := delta.Counts()
			ops := addNF + delNF + addR + delR
			cost := barrierRTT + time.Duration(ops)*perOp
			time.Sleep(cost)
			sb := lo.Southbound()
			sb.AddFlowMods(uint64(addR + delR))
			sb.AddBarriers(1)
			sb.ObserveWindow(uint64(addR + delR))
			sb.AddContainerOps(uint64(addNF + delNF))
			return nil
		})
		var err error
		lo, err = core.NewLocalOrchestrator(core.LocalConfig{
			ID:         fmt.Sprintf("dom%03d", i),
			Substrate:  scenarioLeafSubstrate(i, cfg.SAPs, flapSlots),
			Programmer: prog,
			Capabilities: []domain.Capability{
				domain.CapCompute, domain.CapForwarding,
			},
		})
		if err != nil {
			return nil, nil, err
		}
		leaves[i] = &flapLeaf{LocalOrchestrator: lo}
		if err := ro.Attach(context.Background(), leaves[i]); err != nil {
			return nil, nil, err
		}
	}
	return ro, leaves, nil
}

// scenarioRequest derives job j deterministically: which tenant class it
// belongs to, which domain it lands in, and its chain shape (elephants are
// 4-NF chains, mice single-NF).
func scenarioRequest(j int, cfg ScenarioConfig) (tenant, class string, req *nffg.NFFG) {
	mouse := float64(j%100)/100 < cfg.MiceShare
	dom := j % cfg.Domains
	// The SAP pair is keyed by the per-domain sequence number so services
	// sharing a domain never share an ingress port (which would be a
	// legitimate flowrule conflict, not a capacity rejection).
	seq := j / cfg.Domains
	a := seq % cfg.SAPs
	bIdx := (a + 1 + seq/cfg.SAPs) % cfg.SAPs
	if bIdx == a {
		bIdx = (a + 1) % cfg.SAPs
	}
	sapA := nffg.ID(fmt.Sprintf("d%03ds%d", dom, a))
	sapB := nffg.ID(fmt.Sprintf("d%03ds%d", dom, bIdx))
	k, bw := 4, 40.0
	class = "elephant"
	if mouse {
		k, bw = 1, 5.0
		class = "mouse"
	}
	tenant = fmt.Sprintf("%s-%d", class, j%4)
	id := fmt.Sprintf("svc%05d", j)
	b := nffg.NewBuilder(id).SAP(sapA).SAP(sapB)
	types := []string{"firewall", "dpi", "nat", "compress"}
	nodes := []nffg.ID{sapA}
	for i := 0; i < k; i++ {
		nf := nffg.ID(fmt.Sprintf("%s-nf%d", id, i))
		b.NF(nf, types[(j+i)%len(types)], 2, nffg.Resources{CPU: 2, Mem: 1024, Storage: 4})
		nodes = append(nodes, nf)
	}
	nodes = append(nodes, sapB)
	b.Chain(id, bw, 0, nodes...)
	return tenant, class, b.MustBuild()
}

// flapChain builds one flap-phase service: a 2-NF chain between a
// fleet-shared SAP slot pair, pinned onto the victim's BiS-BiS (the pin dies
// with the node, so re-embedding is free to pick any survivor).
func flapChain(flap, j, perFlap int, victim nffg.ID) *nffg.NFFG {
	slot := flap*perFlap + j
	id := fmt.Sprintf("flap%d-%d", flap, j)
	in := nffg.ID(fmt.Sprintf("fp%din", slot))
	out := nffg.ID(fmt.Sprintf("fp%dout", slot))
	b := nffg.NewBuilder(id).SAP(in).SAP(out)
	nodes := []nffg.ID{in}
	for i, typ := range []string{"firewall", "nat"} {
		nf := nffg.ID(fmt.Sprintf("%s-nf%d", id, i))
		b.NF(nf, typ, 2, nffg.Resources{CPU: 2, Mem: 1024, Storage: 4})
		nodes = append(nodes, nf)
	}
	nodes = append(nodes, out)
	b.Chain(id, 5, 0, nodes...)
	g := b.MustBuild()
	for _, nf := range g.NFs.All() {
		nf.Host = victim
	}
	return g
}

// flapPhase runs the domain-flap workload: a fleet controller probes every
// member; cfg.Flaps victims each get cfg.FlapSvcs pinned services, then die.
// While each failover runs, sampler workers keep cycling install/remove jobs
// on churn-freed slots of surviving domains (disjoint tenants) — every one of
// those must succeed. Returns the artifact section.
func flapPhase(ro *core.ResourceOrchestrator, q *admission.Queue, leaves []*flapLeaf, cfg ScenarioConfig, sampler []int) *FailoverSLO {
	fc := fleet.New(fleet.Config{
		Orchestrator:  ro,
		Admission:     q,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  time.Second,
		ProbeRetries:  -1,
		DegradeAfter:  1,
		EvictAfter:    2,
		MaxMigrations: 4,
	})
	for _, l := range leaves {
		fc.Adopt(l)
	}
	fc.Run()
	defer fc.Stop()

	var rehomedSamples []time.Duration
	var ok, lost atomic.Uint64
	for f := 0; f < cfg.Flaps; f++ {
		v := cfg.Domains - 1 - f
		// The leaves export collapsed single-BiSBiS views, so the DoV node to
		// pin on is bisbis@<child>, not the leaf-internal substrate node.
		victimNode := nffg.ID(fmt.Sprintf("bisbis@dom%03d", v))
		for j := 0; j < cfg.FlapSvcs; j++ {
			req := flapChain(f, j, cfg.FlapSvcs, victimNode)
			ctx := unify.WithMeta(context.Background(), unify.RequestMeta{Tenant: "flap"})
			job, err := q.Submit(ctx, req)
			if err != nil {
				log.Fatalf("flap %d: submit %s: %v", f, req.ID, err)
			}
			if done, err := q.Wait(context.Background(), job.ID); err != nil || done.State != admission.StateDeployed {
				log.Fatalf("flap %d: deploy %s: %+v %v", f, req.ID, done, err)
			}
		}

		stop := make(chan struct{})
		var swg sync.WaitGroup
		const samplerWorkers = 2
		for w := 0; w < samplerWorkers; w++ {
			swg.Add(1)
			go func(w int) {
				defer swg.Done()
				for n := w; ; n += samplerWorkers {
					select {
					case <-stop:
						return
					default:
					}
					if len(sampler) == 0 {
						return
					}
					j := sampler[n%len(sampler)]
					tenant, _, req := scenarioRequest(j, cfg)
					ctx := unify.WithMeta(context.Background(), unify.RequestMeta{Tenant: tenant})
					job, err := q.Submit(ctx, req)
					if err != nil {
						lost.Add(1)
						continue
					}
					done, err := q.Wait(context.Background(), job.ID)
					if err != nil || done.State != admission.StateDeployed {
						lost.Add(1)
						continue
					}
					if err := q.Remove(context.Background(), req.ID); err != nil {
						lost.Add(1)
						continue
					}
					ok.Add(1)
				}
			}(w)
		}

		t0 := time.Now()
		leaves[v].dead.Store(true)
		deadline := time.Now().Add(60 * time.Second)
		for int(fc.Stats().Detached) != f+1 {
			if time.Now().After(deadline) {
				log.Fatalf("flap %d: eviction incomplete: %+v", f, fc.Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}
		rehomedSamples = append(rehomedSamples, time.Since(t0))
		close(stop)
		swg.Wait()
	}

	st := fc.Stats()
	return &FailoverSLO{
		Flaps:            cfg.Flaps,
		PinnedPerFlap:    cfg.FlapSvcs,
		Evictions:        int(st.Evictions),
		ServicesRehomed:  int(st.ServicesRehomed),
		RehomeFailures:   int(st.RehomeFailures),
		SurvivorRequests: int(ok.Load()),
		RequestsLost:     int(lost.Load()),
		TimeToRehomedMs:  summarize(rehomedSamples),
	}
}

// scenario runs the generator and writes the SLO artifact.
func scenario(cfg ScenarioConfig, out string) {
	header(fmt.Sprintf("SCENARIO — %d domains, %d SAPs, %d services (mice %.0f%%, churn %.0f%%, flaps %d)",
		cfg.Domains, cfg.Domains*cfg.SAPs, cfg.Services, cfg.MiceShare*100, cfg.Churn*100, cfg.Flaps))
	ro, leaves, err := buildScenarioStack(cfg)
	if err != nil {
		log.Fatal(err)
	}
	q := admission.New(ro, admission.Options{
		QueueCap: cfg.Services + 1,
		TenantWeights: map[string]int{
			"mouse-0": 4, "mouse-1": 4, "mouse-2": 4, "mouse-3": 4,
			"elephant-0": 1, "elephant-1": 1, "elephant-2": 1, "elephant-3": 1,
		},
	})
	defer q.Close()

	type outcome struct {
		class    string
		slo      time.Duration
		deployed bool
		removed  bool
	}
	outcomes := make([]outcome, cfg.Services)
	sem := make(chan struct{}, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for j := 0; j < cfg.Services; j++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(j int) {
			defer wg.Done()
			defer func() { <-sem }()
			tenant, class, req := scenarioRequest(j, cfg)
			outcomes[j].class = class
			ctx := unify.WithMeta(context.Background(), unify.RequestMeta{Tenant: tenant})
			job, err := q.Submit(ctx, req)
			if err != nil {
				return
			}
			done, err := q.Wait(context.Background(), job.ID)
			if err != nil || done.State != admission.StateDeployed {
				return
			}
			outcomes[j].deployed = true
			outcomes[j].slo = done.Finished.Sub(done.Submitted)
			// Churn: a deterministic slice of deployed services is torn down
			// again while later installs are still in flight.
			if float64(j%100)/100 < cfg.Churn {
				if err := q.Remove(context.Background(), req.ID); err == nil {
					outcomes[j].removed = true
				}
			}
		}(j)
	}
	wg.Wait()
	wall := time.Since(start)

	var failover *FailoverSLO
	if cfg.Flaps > 0 {
		// The disjoint-tenant samplers reuse churn-freed slots on domains that
		// will survive every flap (victims are the last cfg.Flaps domains).
		var sampler []int
		for j, o := range outcomes {
			if o.removed && j%cfg.Domains < cfg.Domains-cfg.Flaps {
				sampler = append(sampler, j)
			}
		}
		failover = flapPhase(ro, q, leaves, cfg, sampler)
	}

	rep := ScenarioReport{
		Scenario:   cfg,
		Submitted:  cfg.Services,
		WallClockS: wall.Seconds(),
		SLO:        map[string]SLOSummary{},
		Stages:     map[string]SLOSummary{},
		Southbound: ro.SouthboundStats(),
		Admission:  q.Stats(),
		Failover:   failover,
	}
	// Per-stage latency decomposition from the control plane's histograms:
	// admission wait + e2e from the queue, map + commit from the RO, the
	// southbound programming delta from the aggregated adapter counters.
	for stage, h := range q.StageHistograms() {
		rep.Stages[stage] = summarizeHist(h)
	}
	for stage, h := range ro.StageHistograms() {
		rep.Stages[stage] = summarizeHist(h)
	}
	if sb := rep.Southbound; sb.DeltaLatency.Count > 0 {
		rep.Stages["southbound_delta"] = summarizeHist(sb.DeltaLatency)
	}
	byClass := map[string][]time.Duration{}
	for _, o := range outcomes {
		if !o.deployed {
			rep.Failed++
			continue
		}
		rep.Deployed++
		if o.removed {
			rep.Removed++
		}
		byClass["all"] = append(byClass["all"], o.slo)
		byClass[o.class] = append(byClass[o.class], o.slo)
	}
	for class, samples := range byClass {
		rep.SLO[class] = summarize(samples)
	}

	fmt.Printf("%-10s %7s %9s %9s %9s %9s %9s\n", "class", "count", "p50-ms", "p95-ms", "p99-ms", "mean-ms", "max-ms")
	for _, class := range []string{"all", "mouse", "elephant"} {
		s, ok := rep.SLO[class]
		if !ok {
			continue
		}
		fmt.Printf("%-10s %7d %9.2f %9.2f %9.2f %9.2f %9.2f\n",
			class, s.Count, s.P50Ms, s.P95Ms, s.P99Ms, s.MeanMs, s.MaxMs)
	}
	if len(rep.Stages) > 0 {
		fmt.Printf("\n%-18s %7s %9s %9s %9s %9s\n", "stage", "count", "p50-ms", "p95-ms", "p99-ms", "mean-ms")
		stages := make([]string, 0, len(rep.Stages))
		for s := range rep.Stages {
			stages = append(stages, s)
		}
		sort.Strings(stages)
		for _, s := range stages {
			st := rep.Stages[s]
			fmt.Printf("%-18s %7d %9.2f %9.2f %9.2f %9.2f\n", s, st.Count, st.P50Ms, st.P95Ms, st.P99Ms, st.MeanMs)
		}
	}
	if f := rep.Failover; f != nil {
		fmt.Printf("\nfailover: flaps=%d evictions=%d rehomed=%d rehome-failures=%d survivor-requests=%d lost=%d\n",
			f.Flaps, f.Evictions, f.ServicesRehomed, f.RehomeFailures, f.SurvivorRequests, f.RequestsLost)
		fmt.Printf("time-to-rehomed: p50=%.1fms p95=%.1fms max=%.1fms\n",
			f.TimeToRehomedMs.P50Ms, f.TimeToRehomedMs.P95Ms, f.TimeToRehomedMs.MaxMs)
	}
	sb := rep.Southbound
	fmt.Printf("\ndeployed=%d/%d removed=%d wall=%.2fs\n", rep.Deployed, rep.Submitted, rep.Removed, wall.Seconds())
	fmt.Printf("southbound: deltas=%d flow-mods=%d barriers=%d fm/barrier=%.1f container-ops=%d mean-delta=%s\n",
		sb.Deltas, sb.FlowMods, sb.Barriers, sb.FlowModsPerBarrier(), sb.ContainerOps, sb.MeanDeltaLatency().Round(time.Microsecond))

	if f := rep.Failover; f != nil && f.RequestsLost > 0 {
		log.Fatalf("failover SLO violated: %d disjoint-tenant requests lost", f.RequestsLost)
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("SLO artifact written to %s\n", out)
	}
}
