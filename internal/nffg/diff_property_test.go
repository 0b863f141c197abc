package nffg

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// referenceDiff is Diff as it was before it skipped shared entities: it
// visits every infra and NF of both graphs, in sorted order.
func referenceDiff(oldG, newG *NFFG) (*Delta, error) {
	d := &Delta{AddRules: map[ID][]*Flowrule{}, DelRules: map[ID][]*Flowrule{}}
	for _, id := range newG.InfraIDs() {
		if _, ok := oldG.Infras.Lookup(id); !ok {
			return nil, fmt.Errorf("%w: infra %s only in new graph", ErrInvalid, id)
		}
	}
	for _, id := range oldG.InfraIDs() {
		if _, ok := newG.Infras.Lookup(id); !ok {
			return nil, fmt.Errorf("%w: infra %s only in old graph", ErrInvalid, id)
		}
	}
	for _, id := range newG.NFIDs() {
		nf := newG.NFs.Get(id)
		if nf.Host == "" {
			continue
		}
		old, ok := oldG.NFs.Lookup(id)
		switch {
		case !ok || old.Host == "":
			d.AddNFs = append(d.AddNFs, copyNF(nf))
		case old.Host != nf.Host:
			d.DelNFs = append(d.DelNFs, id)
			d.AddNFs = append(d.AddNFs, copyNF(nf))
		}
	}
	for _, id := range oldG.NFIDs() {
		old := oldG.NFs.Get(id)
		if old.Host == "" {
			continue
		}
		nf, ok := newG.NFs.Lookup(id)
		if !ok || nf.Host == "" {
			d.DelNFs = append(d.DelNFs, id)
		}
	}
	sort.Slice(d.DelNFs, func(i, j int) bool { return d.DelNFs[i] < d.DelNFs[j] })
	for _, id := range newG.InfraIDs() {
		oldTable, newTable := changedRules(slices.Collect(oldG.Infras.Get(id).Flowrules()), slices.Collect(newG.Infras.Get(id).Flowrules()))
		if len(oldTable)+len(newTable) == 0 {
			continue
		}
		oldRules := indexRules(oldTable)
		newRules := indexRules(newTable)
		for k, nf := range newRules {
			if of, ok := oldRules[k]; !ok || !of.Equal(nf) {
				cf := *nf
				d.AddRules[id] = append(d.AddRules[id], &cf)
				if ok {
					cof := *of
					d.DelRules[id] = append(d.DelRules[id], &cof)
				}
			}
		}
		for k, of := range oldRules {
			if _, ok := newRules[k]; !ok {
				cof := *of
				d.DelRules[id] = append(d.DelRules[id], &cof)
			}
		}
		sortRules(d.AddRules[id])
		sortRules(d.DelRules[id])
		if len(d.AddRules[id]) == 0 {
			delete(d.AddRules, id)
		}
		if len(d.DelRules[id]) == 0 {
			delete(d.DelRules, id)
		}
	}
	return d, nil
}

func indexRules(rules []*Flowrule) map[Match]*Flowrule {
	m := make(map[Match]*Flowrule, len(rules))
	for _, f := range rules {
		m[f.Match] = f
	}
	return m
}

// randomConfigured is a random domain graph with mapped NFs and flowrules.
func randomConfigured(rng *rand.Rand) *NFFG {
	g := prefixedGraph(rng, "d", "border")
	ids := g.InfraIDs()
	for n := rng.Intn(6); n > 0; n-- {
		_ = g.AddNF(&NF{ID: ID(fmt.Sprintf("nf%d", rng.Intn(8))), FunctionalType: "fw",
			Ports: []*Port{{ID: "1"}, {ID: "2"}}, Host: ids[rng.Intn(len(ids))], Status: StatusMapped})
	}
	for n := rng.Intn(12); n > 0; n-- {
		_ = g.AddFlowrule(ids[rng.Intn(len(ids))], randomRule(rng))
	}
	return g
}

func randomRule(rng *rand.Rand) *Flowrule {
	return &Flowrule{
		ID:     fmt.Sprintf("r%d", rng.Intn(1000)),
		Match:  Match{InPort: InfraPort(fmt.Sprint(1 + rng.Intn(3))), Tag: fmt.Sprintf("t%d", rng.Intn(6))},
		Action: Action{Output: InfraPort(fmt.Sprint(1 + rng.Intn(3)))},
		HopID:  fmt.Sprintf("h%d", rng.Intn(4)),
	}
}

// mutateRandomly changes placements and flowtables of g through its mutators
// only, as a fork requires.
func mutateRandomly(rng *rand.Rand, g *NFFG) {
	infras := g.InfraIDs()
	infra := func() ID { return infras[rng.Intn(len(infras))] }
	for n := rng.Intn(6); n > 0; n-- {
		nfs := g.NFIDs()
		switch rng.Intn(7) {
		case 0:
			_ = g.AddNF(&NF{ID: ID(fmt.Sprintf("nf%d", rng.Intn(8))), FunctionalType: "fw",
				Ports: []*Port{{ID: "1"}}, Host: infra()})
		case 1:
			if len(nfs) > 0 {
				_ = g.RemoveNF(nfs[rng.Intn(len(nfs))])
			}
		case 2: // migrate
			if len(nfs) > 0 {
				_ = g.Apply(&Delta{AddNFs: []*NF{{ID: nfs[rng.Intn(len(nfs))], Host: infra()}}})
			}
		case 3: // unmap
			if len(nfs) > 0 {
				_ = g.Apply(&Delta{DelNFs: []ID{nfs[rng.Intn(len(nfs))]}})
			}
		case 4:
			_ = g.AddFlowrule(infra(), randomRule(rng))
		case 5:
			g.RemoveFlowrulesByHop(fmt.Sprintf("h%d", rng.Intn(4)))
		case 6: // replace a rule's action
			id := infra()
			if rules := slices.Collect(g.Infras.Get(id).Flowrules()); len(rules) > 0 {
				old := rules[rng.Intn(len(rules))]
				repl := *old
				repl.Action.PushTag = "x"
				_ = g.Apply(&Delta{DelRules: map[ID][]*Flowrule{id: {old}}, AddRules: map[ID][]*Flowrule{id: {&repl}}})
			}
		}
	}
	if rng.Intn(20) == 0 {
		_ = g.AddInfra(&Infra{ID: "extra", Ports: []*Port{{ID: "1"}}})
	}
}

// Property: on random old/new pairs — the new graph a copy of the old, a
// fork of it, or a fork of an old graph that is itself a fork on an overlay
// — Diff returns exactly what referenceDiff returns, in either direction.
func TestDiffMatchesReference(t *testing.T) {
	changed := 0
	for seed := int64(0); seed < 500; seed++ {
		for _, build := range []string{"copy", "fork", "fork of a fork"} {
			rng := rand.New(rand.NewSource(seed))
			oldG := randomConfigured(rng).Seal()
			var newG *NFFG
			switch build {
			case "copy":
				newG = oldG.Copy()
			case "fork":
				newG = oldG.Fork()
			default:
				oldG = oldG.Fork()
				mutateRandomly(rng, oldG)
				newG = oldG.Seal().Fork()
			}
			mutateRandomly(rng, newG)
			for _, pair := range [][2]*NFFG{{oldG, newG}, {newG, oldG}} {
				got, gotErr := Diff(pair[0], pair[1])
				want, wantErr := referenceDiff(pair[0], pair[1])
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %s: Diff = %+v, %v; reference = %+v, %v", seed, build, got, gotErr, want, wantErr)
				}
				if got != nil && !got.Empty() {
					changed++
				}
			}
		}
	}
	if changed < 1500 {
		t.Fatalf("only %d of 3000 pairs differ: the property is not exercised", changed)
	}
}
