package nffg

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// referenceDiff is Diff as it was before it skipped shared entities: it
// visits every infra and NF of both graphs, in sorted order.
func referenceDiff(oldG, newG *NFFG) (*Delta, error) {
	d := &Delta{AddRules: map[ID][]*Flowrule{}, DelRules: map[ID][]*Flowrule{}}
	for _, id := range newG.InfraIDs() {
		if _, ok := oldG.Infras[id]; !ok {
			return nil, fmt.Errorf("%w: infra %s only in new graph", ErrInvalid, id)
		}
	}
	for _, id := range oldG.InfraIDs() {
		if _, ok := newG.Infras[id]; !ok {
			return nil, fmt.Errorf("%w: infra %s only in old graph", ErrInvalid, id)
		}
	}
	for _, id := range newG.NFIDs() {
		nf := newG.NFs[id]
		if nf.Host == "" {
			continue
		}
		old, ok := oldG.NFs[id]
		switch {
		case !ok || old.Host == "":
			d.AddNFs = append(d.AddNFs, copyNF(nf))
		case old.Host != nf.Host:
			d.DelNFs = append(d.DelNFs, id)
			d.AddNFs = append(d.AddNFs, copyNF(nf))
		}
	}
	for _, id := range oldG.NFIDs() {
		old := oldG.NFs[id]
		if old.Host == "" {
			continue
		}
		nf, ok := newG.NFs[id]
		if !ok || nf.Host == "" {
			d.DelNFs = append(d.DelNFs, id)
		}
	}
	sort.Slice(d.DelNFs, func(i, j int) bool { return d.DelNFs[i] < d.DelNFs[j] })
	for _, id := range newG.InfraIDs() {
		oldTable, newTable := changedRules(oldG.Infras[id].Flowrules, newG.Infras[id].Flowrules)
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
			if rules := g.Infras[id].Flowrules; len(rules) > 0 {
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

// Property: on random old/new pairs, the new graph built by Copy or by Fork,
// Diff returns exactly what referenceDiff returns.
func TestDiffMatchesReference(t *testing.T) {
	changed := 0
	for seed := int64(0); seed < 500; seed++ {
		for _, fork := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			oldG := randomConfigured(rng).Seal()
			newG := oldG.Copy()
			if fork {
				newG = oldG.Fork()
			}
			mutateRandomly(rng, newG)
			got, gotErr := Diff(oldG, newG)
			want, wantErr := referenceDiff(oldG, newG)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d fork=%v: Diff = %+v, %v; reference = %+v, %v", seed, fork, got, gotErr, want, wantErr)
			}
			if got != nil && !got.Empty() {
				changed++
			}
		}
	}
	if changed < 500 {
		t.Fatalf("only %d of 1000 pairs differ: the property is not exercised", changed)
	}
}
