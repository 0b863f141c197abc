package nffg

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// substrate returns a 3-BiSBiS line usable as both "old" and "new" sides of
// a diff.
func substrate() *NFFG {
	return NewBuilder("sub").
		BiSBiS("a", "d", 4, Resources{CPU: 8, Mem: 8192, Storage: 100}, "fw", "dpi", "nat").
		BiSBiS("b", "d", 4, Resources{CPU: 8, Mem: 8192, Storage: 100}, "fw", "dpi", "nat").
		BiSBiS("c", "d", 4, Resources{CPU: 8, Mem: 8192, Storage: 100}, "fw", "dpi", "nat").
		Link("ab", "a", "2", "b", "1", 1000, 1).
		Link("bc", "b", "2", "c", "1", 1000, 1).
		MustBuild()
}

func TestDiffEmpty(t *testing.T) {
	a := substrate()
	d, err := Diff(a, a.Copy())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("identical graphs must diff empty: %+v", d)
	}
}

func TestDiffAddNFAndRules(t *testing.T) {
	oldG := substrate()
	newG := oldG.Copy()
	newG.NFs.set("fw1", &NF{ID: "fw1", FunctionalType: "fw", Ports: []*Port{{ID: "1"}, {ID: "2"}}, Demand: Resources{CPU: 1}, Host: "a", Status: StatusMapped})
	if err := newG.AddFlowrule("a", &Flowrule{ID: "r1", Match: Match{InPort: InfraPort("1"), Tag: "c"}, Action: Action{Output: NFPort("fw1", "1")}, HopID: "h1"}); err != nil {
		t.Fatal(err)
	}
	d, err := Diff(oldG, newG)
	if err != nil {
		t.Fatal(err)
	}
	an, dn, ar, dr := d.Counts()
	if an != 1 || dn != 0 || ar != 1 || dr != 0 {
		t.Fatalf("unexpected delta counts: %d %d %d %d", an, dn, ar, dr)
	}
	// Applying to old must converge to new.
	if err := oldG.Apply(d); err != nil {
		t.Fatal(err)
	}
	d2, err := Diff(oldG, newG)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Empty() {
		t.Fatalf("apply(diff) must converge, residual: %+v", d2)
	}
}

func TestDiffMigration(t *testing.T) {
	oldG := substrate()
	oldG.NFs.set("nf", &NF{ID: "nf", FunctionalType: "fw", Ports: []*Port{{ID: "1"}}, Host: "a", Status: StatusDeployed})
	newG := oldG.Copy()
	newG.NFs.Get("nf").Host = "b"
	d, err := Diff(oldG, newG)
	if err != nil {
		t.Fatal(err)
	}
	an, dn, _, _ := d.Counts()
	if an != 1 || dn != 1 {
		t.Fatalf("migration should be del+add, got add=%d del=%d", an, dn)
	}
	if err := oldG.Apply(d); err != nil {
		t.Fatal(err)
	}
	if oldG.NFs.Get("nf").Host != "b" {
		t.Fatalf("NF should land on b, got %s", oldG.NFs.Get("nf").Host)
	}
}

func TestDiffRuleRewrite(t *testing.T) {
	oldG := substrate()
	_ = oldG.AddFlowrule("a", &Flowrule{ID: "r", Match: Match{InPort: InfraPort("1")}, Action: Action{Output: InfraPort("2")}})
	newG := oldG.Copy()
	slices.Collect(newG.Infras.Get("a").Flowrules())[0].Action.Output = InfraPort("3")
	d, err := Diff(oldG, newG)
	if err != nil {
		t.Fatal(err)
	}
	_, _, ar, dr := d.Counts()
	if ar != 1 || dr != 1 {
		t.Fatalf("rewrite should be del+add of same match, got add=%d del=%d", ar, dr)
	}
	if err := oldG.Apply(d); err != nil {
		t.Fatal(err)
	}
	if len(slices.Collect(oldG.Infras.Get("a").Flowrules())) != 1 || slices.Collect(oldG.Infras.Get("a").Flowrules())[0].Action.Output != InfraPort("3") {
		t.Fatalf("rule not rewritten: %v", slices.Collect(oldG.Infras.Get("a").Flowrules())[0])
	}
}

// A commit's Diff costs the rules it changed, not the table: on a fork of a
// sealed graph that adds one rule and removes another, Diff allocates as
// much on a 96-rule infra (ring16's MdO BiS-BiS) as on an 8-rule one, in
// allocations and, within a few words, in bytes, and the Delta holds the
// graphs' own rules, not copies.
func TestDiffCostsTheChange(t *testing.T) {
	allocs, bytes := map[int]float64{}, map[int]uint64{}
	for _, n := range []int{8, 96} {
		g := substrate()
		for k := range n {
			if err := g.AddFlowrule("a", &Flowrule{ID: fmt.Sprintf("r%d", k), Match: Match{InPort: InfraPort("1"), Tag: fmt.Sprint(k)},
				Action: Action{Output: InfraPort("2")}, HopID: fmt.Sprintf("h%d", k)}); err != nil {
				t.Fatal(err)
			}
		}
		removed := slices.Collect(g.Infras.Get("a").Flowrules())[n/2]
		g.Seal()
		next := g.Fork()
		added := &Flowrule{ID: "new", Match: Match{InPort: InfraPort("2"), Tag: "new"}, Action: Action{Output: InfraPort("1")}, HopID: "new"}
		if err := next.AddFlowrule("a", added); err != nil {
			t.Fatal(err)
		}
		if next.RemoveFlowrulesByHop(removed.HopID) != 1 {
			t.Fatalf("%d rules: no rule of hop %s removed", n, removed.HopID)
		}
		d, err := Diff(g, next)
		if err != nil {
			t.Fatal(err)
		}
		if add, del := d.AddRules["a"], d.DelRules["a"]; len(add) != 1 || add[0] != added || len(del) != 1 || del[0] != removed {
			t.Fatalf("%d rules: delta adds %v and deletes %v, want the graphs' own %p and %p", n, add, del, added, removed)
		}
		allocs[n] = testing.AllocsPerRun(100, func() { _, _ = Diff(g, next) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 100 {
			_, _ = Diff(g, next)
		}
		runtime.ReadMemStats(&after)
		bytes[n] = (after.TotalAlloc - before.TotalAlloc) / 100
	}
	if allocs[96] != allocs[8] || bytes[96] > bytes[8]+64 {
		t.Fatalf("Diff allocates %v times, %d B on a 96-rule table and %v times, %d B on an 8-rule one", allocs[96], bytes[96], allocs[8], bytes[8])
	}
}

func TestDiffTopologyMismatch(t *testing.T) {
	a := substrate()
	b := substrate()
	_ = b.AddInfra(&Infra{ID: "extra"})
	if _, err := Diff(a, b); err == nil {
		t.Fatal("infra set mismatch must fail")
	}
	if _, err := Diff(b, a); err == nil {
		t.Fatal("infra set mismatch must fail (reverse)")
	}
}

func TestDeltaRemoveNF(t *testing.T) {
	oldG := substrate()
	oldG.NFs.set("nf", &NF{ID: "nf", FunctionalType: "fw", Ports: []*Port{{ID: "1"}}, Host: "a", Status: StatusDeployed})
	newG := oldG.Copy()
	newG.NFs.Get("nf").Host = ""
	d, err := Diff(oldG, newG)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.DelNFs) != 1 || d.DelNFs[0] != "nf" {
		t.Fatalf("want DelNFs [nf], got %v", d.DelNFs)
	}
	if err := oldG.Apply(d); err != nil {
		t.Fatal(err)
	}
	if oldG.NFs.Get("nf").Host != "" || oldG.NFs.Get("nf").Status != StatusStopped {
		t.Fatalf("NF should be unmapped+stopped: %+v", oldG.NFs.Get("nf"))
	}
}

// randomConfig derives a random "configured" version of the substrate:
// random NF placements and random flowrules.
func randomConfig(rng *rand.Rand, base *NFFG) *NFFG {
	g := base.Copy()
	hosts := g.InfraIDs()
	nNF := rng.Intn(4)
	for i := 0; i < nNF; i++ {
		id := ID(fmt.Sprintf("nf%d", i))
		host := hosts[rng.Intn(len(hosts))]
		g.NFs.set(id, &NF{ID: id, FunctionalType: "fw", Ports: []*Port{{ID: "1"}, {ID: "2"}}, Demand: Resources{CPU: 1}, Host: host, Status: StatusMapped})
	}
	nRules := rng.Intn(5)
	for i := 0; i < nRules; i++ {
		host := hosts[rng.Intn(len(hosts))]
		inP := fmt.Sprint(1 + rng.Intn(4))
		outP := fmt.Sprint(1 + rng.Intn(4))
		_ = g.AddFlowrule(host, &Flowrule{
			ID:     fmt.Sprintf("r%d", i),
			Match:  Match{InPort: InfraPort(inP), Tag: fmt.Sprintf("t%d", rng.Intn(3))},
			Action: Action{Output: InfraPort(outP)},
		})
	}
	return g
}

// Property: for arbitrary old/new configurations over the same substrate,
// Apply(Diff(old,new), old) converges (the residual diff is empty).
func TestDiffApplyConvergenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := substrate()
		oldG := randomConfig(rng, base)
		newG := randomConfig(rng, base)
		d, err := Diff(oldG, newG)
		if err != nil {
			return false
		}
		if err := oldG.Apply(d); err != nil {
			return false
		}
		d2, err := Diff(oldG, newG)
		if err != nil {
			return false
		}
		return d2.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Diff of a graph against itself is empty even after Copy.
func TestDiffSelfProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConfig(rng, substrate())
		d, err := Diff(g, g.Copy())
		return err == nil && d.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Diff cuts off what two flowtables share rule for rule, front and back, and
// indexes the rest by Match, where the last rule of a Match stands for it;
// the cut must never change what comes out.
func TestDiffFlowtablesThatDidNotChange(t *testing.T) {
	rule := func(id, in, tag, out string) *Flowrule {
		return &Flowrule{ID: id, Match: Match{InPort: InfraPort(in), Tag: tag}, Action: Action{Output: InfraPort(out)}}
	}
	r1, r2, r3 := rule("r1", "1", "x", "2"), rule("r2", "1", "y", "3"), rule("r3", "2", "", "1")
	shadowed, shadowing := rule("s1", "1", "x", "4"), rule("s2", "1", "x", "2") // share r1's Match
	cases := []struct {
		name       string
		old, new   []*Flowrule
		adds, dels []string // rule IDs, in delta order
	}{
		{name: "equal", old: []*Flowrule{r1, r2, r3}, new: []*Flowrule{r1, r2, r3}},
		{name: "equal but for IDs", old: []*Flowrule{r1}, new: []*Flowrule{shadowing}},
		{name: "reordered", old: []*Flowrule{r1, r2, r3}, new: []*Flowrule{r3, r1, r2}},
		{name: "duplicate Match, same order", old: []*Flowrule{shadowed, r2, r1}, new: []*Flowrule{shadowed, r2, r1}},
		{name: "duplicate Match, only the shadowed rule differs", old: []*Flowrule{shadowed, r1}, new: []*Flowrule{r2, shadowing}, adds: []string{"r2"}},
		{name: "duplicate Match, the standing rule differs", old: []*Flowrule{r1, shadowed}, new: []*Flowrule{shadowed, r1}, adds: []string{"r1"}, dels: []string{"s1"}},
		{name: "one rule rewritten", old: []*Flowrule{r1, r2, r3}, new: []*Flowrule{shadowed, r2, r3}, adds: []string{"s1"}, dels: []string{"r1"}},
		{name: "one rule gone", old: []*Flowrule{r1, r2, r3}, new: []*Flowrule{r1, r3}, dels: []string{"r2"}},
	}
	ids := func(rs []*Flowrule) []string {
		var out []string
		for _, r := range rs {
			out = append(out, r.ID)
		}
		return out
	}
	for _, tc := range cases {
		oldG, newG := substrate(), substrate()
		// Written directly: AddFlowrule refuses a second rule of one Match.
		setRules(oldG.Infras.Get("a"), tc.old...)
		setRules(newG.Infras.Get("a"), tc.new...)
		setRules(oldG.Infras.Get("c"), r3)
		setRules(newG.Infras.Get("c"), rule("other", "2", "", "1"))
		d, err := Diff(oldG, newG)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := ids(d.AddRules["a"]); fmt.Sprint(got) != fmt.Sprint(tc.adds) {
			t.Errorf("%s: adds %v, want %v", tc.name, got, tc.adds)
		}
		if got := ids(d.DelRules["a"]); fmt.Sprint(got) != fmt.Sprint(tc.dels) {
			t.Errorf("%s: dels %v, want %v", tc.name, got, tc.dels)
		}
		if _, ok := d.AddRules["a"]; ok && tc.adds == nil {
			t.Errorf("%s: an unchanged infra has an entry in AddRules", tc.name)
		}
		for _, id := range []ID{"b", "c"} { // c's tables differ in a rule ID only
			if d.AddRules[id] != nil || d.DelRules[id] != nil {
				t.Errorf("%s: infra %s should have no delta: %v %v", tc.name, id, d.AddRules[id], d.DelRules[id])
			}
		}
	}
}

// diffRulesPlain is Diff's flowtable comparison without the cut: both whole
// tables indexed by Match. The reference for the property below.
func diffRulesPlain(oldTable, newTable []*Flowrule) (adds, dels []*Flowrule) {
	oldRules, newRules := indexRules(oldTable), indexRules(newTable)
	for k, nf := range newRules {
		if of, ok := oldRules[k]; !ok || !of.Equal(nf) {
			adds = append(adds, nf)
			if ok {
				dels = append(dels, of)
			}
		}
	}
	for k, of := range oldRules {
		if _, ok := newRules[k]; !ok {
			dels = append(dels, of)
		}
	}
	return adds, dels
}

// Property: on random tables — a few Matches, so that they repeat; edits at
// the front, in the middle and at the back — Diff adds and deletes the rules
// the plain comparison does.
func TestDiffCutMatchesPlainIndex(t *testing.T) {
	ruleSet := func(rs []*Flowrule) string {
		var out []string
		for _, r := range rs {
			out = append(out, fmt.Sprintf("%+v>%v", r.Match, r.Action.Output))
		}
		sort.Strings(out)
		return fmt.Sprint(out)
	}
	for seed := int64(1); seed <= 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		random := func() *Flowrule {
			return &Flowrule{
				Match:  Match{InPort: InfraPort(fmt.Sprint(1 + rng.Intn(3))), Tag: fmt.Sprint("t", rng.Intn(4))},
				Action: Action{Output: InfraPort(fmt.Sprint(1 + rng.Intn(2)))},
			}
		}
		var oldTable []*Flowrule
		for i, n := 0, rng.Intn(10); i < n; i++ {
			oldTable = append(oldTable, random())
		}
		newTable := append([]*Flowrule(nil), oldTable...)
		for i, n := 0, rng.Intn(4); i < n; i++ {
			at := rng.Intn(len(newTable) + 1)
			switch {
			case rng.Intn(2) == 0 || at == len(newTable):
				newTable = slices.Insert(newTable, at, random())
			case rng.Intn(2) == 0:
				newTable = slices.Delete(newTable, at, at+1)
			default:
				newTable[at] = random()
			}
		}
		oldG, newG := substrate(), substrate()
		setRules(oldG.Infras.Get("b"), oldTable...)
		setRules(newG.Infras.Get("b"), newTable...)
		d, err := Diff(oldG, newG)
		if err != nil {
			t.Fatal(err)
		}
		adds, dels := diffRulesPlain(oldTable, newTable)
		if got, want := ruleSet(d.AddRules["b"]), ruleSet(adds); got != want {
			t.Fatalf("seed %d: adds %s, want %s", seed, got, want)
		}
		if got, want := ruleSet(d.DelRules["b"]), ruleSet(dels); got != want {
			t.Fatalf("seed %d: dels %s, want %s", seed, got, want)
		}
	}
}
