package embed

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/unify-repro/escape/internal/decomp"
	"github.com/unify-repro/escape/internal/nffg"
)

func res(cpu, mem float64) nffg.Resources { return nffg.Resources{CPU: cpu, Mem: mem, Storage: cpu} }

// lineSubstrate: sap1 - bb1 - bb2 - bb3 - sap2, all BiSBiS support fw/dpi/nat.
func lineSubstrate(t testing.TB) *nffg.NFFG {
	t.Helper()
	g, err := nffg.NewBuilder("sub").
		BiSBiS("bb1", "d1", 8, res(8, 8192), "fw", "dpi", "nat").
		BiSBiS("bb2", "d1", 8, res(8, 8192), "fw", "dpi", "nat").
		BiSBiS("bb3", "d1", 8, res(8, 8192), "fw", "dpi", "nat").
		SAP("sap1").SAP("sap2").
		Link("l0", "sap1", "1", "bb1", "1", 100, 1).
		Link("l1", "bb1", "2", "bb2", "1", 1000, 2).
		Link("l2", "bb2", "2", "bb3", "1", 1000, 2).
		Link("l3", "bb3", "2", "sap2", "1", 100, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func chainRequest(t testing.TB, nfs int, bw, e2eDelay float64) *nffg.NFFG {
	t.Helper()
	b := nffg.NewBuilder("req").SAP("sap1").SAP("sap2")
	nodes := []nffg.ID{"sap1"}
	for i := 1; i <= nfs; i++ {
		id := nffg.ID(fmt.Sprintf("nf%d", i))
		b.NF(id, "fw", 2, res(2, 1024))
		nodes = append(nodes, id)
	}
	nodes = append(nodes, "sap2")
	b.Chain("c", bw, 0, nodes...)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if e2eDelay > 0 {
		var hops []string
		for h := range g.Hops() {
			hops = append(hops, h.ID)
		}
		if err := g.AddReq(&nffg.Requirement{ID: "r1", SrcNode: "sap1", DstNode: "sap2", HopIDs: hops, Bandwidth: bw, Delay: e2eDelay}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestMapSimpleChain(t *testing.T) {
	sub := lineSubstrate(t)
	req := chainRequest(t, 2, 10, 0)
	mp, err := NewDefault().Map(sub, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.NFHost) != 2 {
		t.Fatalf("both NFs must be placed: %v", mp.NFHost)
	}
	if len(mp.Paths) != 3 {
		t.Fatalf("all 3 hops must have paths: %v", mp.Paths)
	}
	// Paths must be contiguous: each hop starts where the chain got to.
	p1 := mp.Paths["c-1"]
	if p1.Nodes[0] != "sap1" {
		t.Fatalf("chain must start at sap1: %v", p1.Nodes)
	}
	p3 := mp.Paths["c-3"]
	if p3.Nodes[len(p3.Nodes)-1] != "sap2" {
		t.Fatalf("chain must end at sap2: %v", p3.Nodes)
	}
}

func TestMapRespectsResources(t *testing.T) {
	sub := lineSubstrate(t)
	// Each node has 8 CPU; request 5 NFs of 2 CPU each = 10 CPU on 24 total.
	req := chainRequest(t, 5, 1, 0)
	mp, err := NewDefault().Map(sub, req)
	if err != nil {
		t.Fatal(err)
	}
	used := map[nffg.ID]float64{}
	for nf, host := range mp.NFHost {
		used[host] += req.NFs.Get(nf).Demand.CPU
	}
	for host, cpu := range used {
		if cpu > sub.Infras.Get(host).Capacity.CPU {
			t.Fatalf("host %s oversubscribed: %g", host, cpu)
		}
	}
}

func TestMapRejectsOversized(t *testing.T) {
	sub := lineSubstrate(t)
	req := nffg.NewBuilder("req").
		SAP("sap1").SAP("sap2").
		NF("big", "fw", 2, res(100, 1024)).
		Chain("c", 1, 0, "sap1", "big", "sap2").
		MustBuild()
	_, err := NewDefault().Map(sub, req)
	if !errors.Is(err, ErrUnmappable) {
		t.Fatalf("oversized NF must fail: %v", err)
	}
}

// The mapper sums a substrate's demands in no particular order; the
// oversubscription error must still name the lowest oversubscribed infra,
// whatever order the NFs were added in.
func TestMapOversubscribedErrorIgnoresNFOrder(t *testing.T) {
	placed := []*nffg.NF{
		{ID: "a", Host: "bb3", Demand: res(6, 1)},
		{ID: "b", Host: "bb3", Demand: res(6, 1)},
		{ID: "c", Host: "bb2", Demand: res(5, 1)},
		{ID: "d", Host: "bb2", Demand: res(4, 1)},
		{ID: "e", Host: "bb1", Demand: res(8, 1)},
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		sub := lineSubstrate(t)
		for _, k := range rng.Perm(len(placed)) {
			nf := *placed[k]
			nf.FunctionalType, nf.Status = "fw", nffg.StatusMapped
			if err := sub.AddNF(&nf); err != nil {
				t.Fatal(err)
			}
		}
		_, err := NewDefault().Map(sub, chainRequest(t, 1, 10, 0))
		if err == nil || !strings.HasSuffix(err.Error(), "infra bb2 oversubscribed") {
			t.Fatalf("round %d: error %v, want bb2 oversubscribed", round, err)
		}
	}
}

func TestMapRejectsUnsupportedType(t *testing.T) {
	sub := lineSubstrate(t)
	req := nffg.NewBuilder("req").
		SAP("sap1").SAP("sap2").
		NF("x", "exotic-type", 2, res(1, 64)).
		Chain("c", 1, 0, "sap1", "x", "sap2").
		MustBuild()
	_, err := NewDefault().Map(sub, req)
	if !errors.Is(err, ErrUnmappable) {
		t.Fatalf("unsupported type must fail: %v", err)
	}
}

func TestMapBandwidthConstraint(t *testing.T) {
	sub := lineSubstrate(t)
	// SAP uplinks have 100 Mbit/s; a 200 Mbit/s chain cannot fit.
	req := chainRequest(t, 1, 200, 0)
	if _, err := NewDefault().Map(sub, req); !errors.Is(err, ErrUnmappable) {
		t.Fatalf("bandwidth overload must fail: %v", err)
	}
	// 50 fits.
	req2 := chainRequest(t, 1, 50, 0)
	if _, err := NewDefault().Map(sub, req2); err != nil {
		t.Fatal(err)
	}
}

func TestMapDelayRequirement(t *testing.T) {
	sub := lineSubstrate(t)
	// Total line delay sap1->sap2 = 1+2+2+1 = 6ms; requirement of 5ms is
	// infeasible regardless of placement, 20ms is fine.
	tight := chainRequest(t, 1, 10, 5)
	if _, err := NewDefault().Map(sub, tight); !errors.Is(err, ErrUnmappable) {
		t.Fatalf("tight delay must fail: %v", err)
	}
	loose := chainRequest(t, 1, 10, 20)
	mp, err := NewDefault().Map(sub, loose)
	if err != nil {
		t.Fatal(err)
	}
	var d float64
	for h := range loose.Hops() {
		d += mp.Paths[h.ID].Delay
	}
	if d > 20 {
		t.Fatalf("mapped delay %g exceeds requirement", d)
	}
}

func TestMapPinnedNF(t *testing.T) {
	sub := lineSubstrate(t)
	req := chainRequest(t, 1, 10, 0)
	req.NFs.Get("nf1").Host = "bb3"
	mp, err := NewDefault().Map(sub, req)
	if err != nil {
		t.Fatal(err)
	}
	if mp.NFHost["nf1"] != "bb3" {
		t.Fatalf("pinned NF must stay on bb3, got %s", mp.NFHost["nf1"])
	}
}

func TestMapPinnedOversized(t *testing.T) {
	sub := lineSubstrate(t)
	req := chainRequest(t, 1, 10, 0)
	req.NFs.Get("nf1").Host = "bb1"
	req.NFs.Get("nf1").Demand = res(100, 10)
	if _, err := NewDefault().Map(sub, req); !errors.Is(err, ErrUnmappable) {
		t.Fatalf("oversized pinned NF must fail: %v", err)
	}
}

// A pin does not waive the host's NF types: the mapping would not validate.
func TestMapPinnedUnsupportedType(t *testing.T) {
	sub := lineSubstrate(t)
	req := chainRequest(t, 1, 10, 0)
	req.NFs.Get("nf1").FunctionalType = "exotic-type"
	req.NFs.Get("nf1").Host = "bb2"
	if _, err := NewDefault().Map(sub, req); !errors.Is(err, ErrUnmappable) {
		t.Fatalf("an NF pinned to a host that lacks its type must fail: %v", err)
	}
}

// worstFit ranks the emptiest host first (load balancing): the ranking that
// walks greedy placement into a dead end backtracking must recover from.
func worstFit(nf *nffg.NF, cands []Candidate) []nffg.ID {
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Free.CPU != cands[j].Free.CPU {
			return cands[i].Free.CPU > cands[j].Free.CPU
		}
		return cands[i].ID < cands[j].ID
	})
	return candidateIDs(cands)
}

func TestBacktrackingFindsFeasible(t *testing.T) {
	// bb1 is attractive (most free CPU) but its onward link is thin; only
	// backtracking discovers bb2.
	sub := nffg.NewBuilder("sub").
		BiSBiS("bb1", "d", 4, res(32, 8192), "fw").
		BiSBiS("bb2", "d", 4, res(8, 8192), "fw").
		SAP("sap1").SAP("sap2").
		Link("l0", "sap1", "1", "bb1", "1", 100, 1).
		Link("l1", "sap1", "1", "bb2", "1", 100, 1). // sap1 dual-homed
		Link("l2", "bb1", "2", "sap2", "1", 5, 1).   // thin egress from bb1
		Link("l3", "bb2", "2", "sap2", "1", 100, 1).
		MustBuild()
	req := chainRequest(t, 1, 50, 0) // needs 50 Mbit/s egress
	// worstFit prefers bb1 (more CPU); only backtracking recovers.
	noBT := New(Options{Rank: worstFit, MaxBacktrack: 0, KPaths: 1})
	if _, err := noBT.Map(sub, req); err == nil {
		t.Fatal("greedy-without-backtracking should fail this topology")
	}
	withBT := New(Options{Rank: worstFit, MaxBacktrack: 16, KPaths: 2})
	mp, err := withBT.Map(sub, req)
	if err != nil {
		t.Fatalf("backtracking should recover: %v", err)
	}
	if mp.NFHost["nf1"] != "bb2" {
		t.Fatalf("NF should land on bb2, got %v", mp.NFHost)
	}
	if mp.Backtracks == 0 {
		t.Fatal("search should have recorded backtracks")
	}
}

func TestDecompositionEnablesMapping(t *testing.T) {
	// Substrate supports only "encrypt" and "compress", not "vpn": the
	// request maps only through decomposition.
	sub := nffg.NewBuilder("sub").
		BiSBiS("bb1", "d", 4, res(8, 8192), "encrypt", "compress").
		SAP("sap1").SAP("sap2").
		Link("l0", "sap1", "1", "bb1", "1", 100, 1).
		Link("l1", "bb1", "2", "sap2", "1", 100, 1).
		MustBuild()
	req := nffg.NewBuilder("req").
		SAP("sap1").SAP("sap2").
		NF("vpn1", "vpn", 2, res(2, 512)).
		Chain("c", 10, 0, "sap1", "vpn1", "sap2").
		MustBuild()

	rules := decomp.NewRules()
	if err := rules.Add("vpn", decomp.Decomposition{
		Name: "enc-comp",
		Components: []decomp.Component{
			{Suffix: "enc", FunctionalType: "encrypt", Ports: 2, Demand: res(1, 256)},
			{Suffix: "cmp", FunctionalType: "compress", Ports: 2, Demand: res(1, 128)},
		},
		Internal: []decomp.InternalLink{{SrcComp: "enc", SrcPort: "2", DstComp: "cmp", DstPort: "1", Bandwidth: 10}},
		PortMaps: []decomp.PortMap{{Outer: "1", Comp: "enc", Inner: "1"}, {Outer: "2", Comp: "cmp", Inner: "2"}},
		Cost:     1,
	}); err != nil {
		t.Fatal(err)
	}

	plain := NewDefault()
	if _, err := plain.Map(sub, req); !errors.Is(err, ErrUnmappable) {
		t.Fatalf("monolithic vpn must fail: %v", err)
	}
	withDecomp := New(Options{MaxBacktrack: 32, Decomp: rules})
	mp, err := withDecomp.Map(sub, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.Applied) != 1 || mp.Applied[0] != "vpn1:enc-comp" {
		t.Fatalf("decomposition should be recorded: %v", mp.Applied)
	}
	if mp.NFHost["vpn1.enc"] != "bb1" || mp.NFHost["vpn1.cmp"] != "bb1" {
		t.Fatalf("components should be placed: %v", mp.NFHost)
	}
}

func TestBaselinesMapEasyRequests(t *testing.T) {
	sub := lineSubstrate(t)
	for _, alg := range []*Mapper{NewFirstFit(), NewRandom(42)} {
		req := chainRequest(t, 2, 5, 0)
		mp, err := alg.Map(sub, req)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if len(mp.NFHost) != 2 {
			t.Fatalf("%s: placements %v", alg.Name(), mp.NFHost)
		}
	}
}

func TestFootprintComputed(t *testing.T) {
	sub := lineSubstrate(t)
	req := chainRequest(t, 1, 10, 0)
	mp, err := NewDefault().Map(sub, req)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Footprint <= 0 {
		t.Fatalf("footprint should be positive: %g", mp.Footprint)
	}
}

// Property: for random feasible chains, every mapping is internally
// consistent — all NFs placed on supporting nodes with capacity, all hop
// paths connect consecutive locations.
func TestMappingConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sub := lineSubstrate(t)
		n := 1 + rng.Intn(4)
		req := chainRequest(t, n, float64(1+rng.Intn(20)), 0)
		mp, err := NewDefault().Map(sub, req)
		if err != nil {
			return false // this substrate fits all these requests
		}
		for nf, host := range mp.NFHost {
			infra, ok := sub.Infras.Lookup(host)
			if !ok || !infra.SupportsNF(req.NFs.Get(nf).FunctionalType) {
				return false
			}
		}
		// Hop contiguity.
		loc := func(node nffg.ID) nffg.ID {
			if _, ok := req.SAPs.Lookup(node); ok {
				return node
			}
			return mp.NFHost[node]
		}
		for h := range req.Hops() {
			p := mp.Paths[h.ID]
			if len(p.Nodes) == 0 {
				return false
			}
			if string(p.Nodes[0]) != string(loc(h.SrcNode)) || string(p.Nodes[len(p.Nodes)-1]) != string(loc(h.DstNode)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
