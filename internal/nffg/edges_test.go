package nffg

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// edgeVersion is one generation in the edge-list oracle: the list under test
// and the plain slice it must read as.
type edgeVersion struct {
	l      *edgeList[int]
	ref    []*int
	sealed bool
}

// checkEdges fails unless l reads exactly as ref through every accessor.
func checkEdges(t *testing.T, at string, l *edgeList[int], ref []*int) {
	t.Helper()
	if l.len() != len(ref) {
		t.Fatalf("%s: len %d, want %d", at, l.len(), len(ref))
	}
	if got := slices.Collect(l.all()); !slices.Equal(got, ref) {
		t.Fatalf("%s: all yields %p, want %p", at, got, ref)
	}
	if got := l.flat(); !slices.Equal(got, ref) {
		t.Fatalf("%s: flat is %p, want %p", at, got, ref)
	}
	i := 0
	for slot, run := range l.runs() {
		for k, v := range run {
			if v != ref[i] || (slot+k < len(l.base())) != (i < l.len()-len(l.tail)) {
				t.Fatalf("%s: runs yield %p at slot %d as entry %d, want %p", at, v, slot+k, i, ref[i])
			}
			i++
		}
	}
}

// slotOf returns the slot of l's i-th entry.
func slotOf(l *edgeList[int], i int) int {
	for at, run := range l.runs() {
		if i < len(run) {
			return at + i
		}
		i -= len(run)
	}
	panic("slotOf: no such entry")
}

// TestEdgeListMatchesReference runs seeded random append, replace, delete,
// fork and seal programs on edge lists against a plain slice kept per
// version. Versions fork from sealed and from unsealed parents and from forks
// of forks, and write enough to fold overlays. After every step every
// version, including each one a later step forked or sealed, reads exactly as
// its slice: the same entries in the same order.
func TestEdgeListMatchesReference(t *testing.T) {
	folds, overlays := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		root := &edgeVersion{l: &edgeList[int]{}}
		for range shareMin + rng.Intn(40) {
			v := new(int)
			root.l.add(v)
			root.ref = append(root.ref, v)
		}
		versions := []*edgeVersion{root}
		for step := 0; step < 200; step++ {
			var writable []*edgeVersion
			for _, v := range versions {
				if !v.sealed {
					writable = append(writable, v)
				}
			}
			ver := versions[rng.Intn(len(versions))]
			var op string
			switch r := rng.Intn(20); {
			case r < 14 && len(writable) > 0:
				ver = writable[rng.Intn(len(writable))]
				v := new(int)
				*v = step
				switch {
				case r < 5 || len(ver.ref) == 0:
					op = "add"
					ver.l.add(v)
					ver.ref = append(ver.ref, v)
				case r < 10:
					i := rng.Intn(len(ver.ref))
					op = fmt.Sprintf("set %d", i)
					ver.l.set(slotOf(ver.l, i), v)
					ver.ref[i] = v
				default:
					gone := map[*int]bool{}
					for range 1 + rng.Intn(3) {
						gone[ver.ref[rng.Intn(len(ver.ref))]] = true
					}
					op = fmt.Sprintf("deleteFunc of %d", len(gone))
					del := func(v *int) bool { return gone[v] }
					ver.l.deleteFunc(del)
					ver.ref = slices.DeleteFunc(ver.ref, del)
				}
			case r < 18:
				op = fmt.Sprintf("fork (sealed parent %v)", ver.sealed)
				next := ver.l.fork(ver.sealed)
				switch {
				case next.b == nil && ver.l.b != nil:
					folds++
				case next.b != nil && (len(next.b.over) > 0 || next.tail != nil):
					overlays++
				}
				versions = append(versions, &edgeVersion{l: &next, ref: slices.Clone(ver.ref)})
			default:
				op = "seal"
				ver.sealed = true
			}
			for i, v := range versions {
				checkEdges(t, fmt.Sprintf("seed %d step %d %s: version %d", seed, step, op, i), v.l, v.ref)
			}
		}
	}
	if folds < 100 || overlays < 100 {
		t.Fatalf("%d folds and %d forks that copied an overlay: the programs do not exercise both", folds, overlays)
	}
}

// flowVersion is one generation in the flowtable oracle: a graph and, per
// infra, the plain slice its flowtable must read as.
type flowVersion struct {
	g      *NFFG
	ref    map[ID][]*Flowrule
	sealed bool
	parent *flowVersion // the version this one was forked from
}

// flowModel is AddFlowrule on a plain slice: the table with f appended, or
// the table unchanged and false when a rule of it has f's Match or f's ID.
func flowModel(table []*Flowrule, f *Flowrule) ([]*Flowrule, bool) {
	if slices.ContainsFunc(table, func(r *Flowrule) bool { return r.Match == f.Match || f.ID != "" && r.ID == f.ID }) {
		return table, false
	}
	return append(table, f), true
}

// TestFlowtableMatchesReference runs seeded random AddFlowrule,
// RemoveFlowrulesByHop and Apply programs (rule adds and deletes) on chains
// of forks of sealed and unsealed graphs, against a plain slice kept per
// version and infra. The tables start on both sides of shareMin and grow
// and shrink across it. After every step every version, including each one a
// later step forked or sealed, reads exactly as its slices, and the version
// written diffs against its parent and its forks, both ways, as
// referenceDiff does.
func TestFlowtableMatchesReference(t *testing.T) {
	infras := []ID{"a", "b", "c"}
	shared, flat := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rule := func() *Flowrule {
			return &Flowrule{
				ID:     fmt.Sprintf("r%d", rng.Intn(60)),
				Match:  Match{InPort: InfraPort(fmt.Sprint(1 + rng.Intn(3))), Tag: fmt.Sprintf("t%d", rng.Intn(12))},
				Action: Action{Output: InfraPort(fmt.Sprint(1 + rng.Intn(3)))},
				HopID:  fmt.Sprintf("h%d", rng.Intn(6)),
			}
		}
		root := &flowVersion{g: New("g"), ref: map[ID][]*Flowrule{}}
		for k, id := range infras {
			if err := root.g.AddInfra(&Infra{ID: id, Ports: []*Port{{ID: "1"}, {ID: "2"}, {ID: "3"}}}); err != nil {
				t.Fatal(err)
			}
			// a starts long enough to share, and with rules of one Match
			// as a decoded table may hold them; b starts short, c empty.
			if k == 0 {
				for range shareMin + rng.Intn(16) {
					root.ref[id] = append(root.ref[id], rule())
				}
				setRules(root.g.Infras.Get(id), slices.Clone(root.ref[id])...)
			}
			for n := []int{0, rng.Intn(shareMin), 0}[k]; len(root.ref[id]) < n; {
				f := rule()
				var ok bool
				if root.ref[id], ok = flowModel(root.ref[id], f); ok {
					if err := root.g.AddFlowrule(id, f); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		versions := []*flowVersion{root}
		for step := 0; step < 150; step++ {
			var writable []*flowVersion
			for _, v := range versions {
				if !v.sealed {
					writable = append(writable, v)
				}
			}
			ver := versions[rng.Intn(len(versions))]
			infra := infras[rng.Intn(len(infras))]
			var op string
			switch r := rng.Intn(20); {
			case r < 15 && len(writable) > 0:
				ver = writable[rng.Intn(len(writable))]
				switch {
				case r < 7:
					op = "AddFlowrule"
					f := rule()
					var ok bool
					ver.ref[infra], ok = flowModel(ver.ref[infra], f)
					if err := ver.g.AddFlowrule(infra, f); (err == nil) != ok {
						t.Fatalf("seed %d step %d: AddFlowrule error %v, model accepts: %v", seed, step, err, ok)
					}
				case r < 10:
					hop := fmt.Sprintf("h%d", rng.Intn(6))
					op = "RemoveFlowrulesByHop " + hop
					want := 0
					for _, id := range infras {
						n := len(ver.ref[id])
						ver.ref[id] = slices.DeleteFunc(ver.ref[id], func(f *Flowrule) bool { return f.HopID == hop })
						want += n - len(ver.ref[id])
					}
					if got := ver.g.RemoveFlowrulesByHop(hop); got != want {
						t.Fatalf("seed %d step %d: RemoveFlowrulesByHop dropped %d, model %d", seed, step, got, want)
					}
				default:
					op = "Apply"
					d := &Delta{AddRules: map[ID][]*Flowrule{}, DelRules: map[ID][]*Flowrule{}}
					for range rng.Intn(3) {
						if table := ver.ref[infra]; len(table) > 0 && rng.Intn(3) > 0 {
							d.DelRules[infra] = append(d.DelRules[infra], table[rng.Intn(len(table))])
						} else {
							d.DelRules[infra] = append(d.DelRules[infra], rule())
						}
					}
					for range rng.Intn(3) {
						d.AddRules[infra] = append(d.AddRules[infra], rule())
					}
					// Apply deletes by Match, then adds copies, renaming one
					// whose ID is taken, and stops at a Match conflict.
					table := slices.DeleteFunc(ver.ref[infra], func(f *Flowrule) bool {
						return slices.ContainsFunc(d.DelRules[infra], func(del *Flowrule) bool { return del.Match == f.Match })
					})
					ok := true
					for _, f := range d.AddRules[infra] {
						cf := *f
						for n := 2; slices.ContainsFunc(table, func(r *Flowrule) bool { return r.ID == cf.ID }); n++ {
							cf.ID = fmt.Sprintf("%s~%d", f.ID, n)
						}
						if table, ok = flowModel(table, &cf); !ok {
							break
						}
					}
					ver.ref[infra] = table
					if err := ver.g.Apply(d); (err == nil) != ok {
						t.Fatalf("seed %d step %d: Apply error %v, model accepts: %v", seed, step, err, ok)
					}
				}
			case r < 18:
				op = fmt.Sprintf("fork (sealed parent %v)", ver.sealed)
				next := &flowVersion{g: ver.g.Fork(), ref: map[ID][]*Flowrule{}, parent: ver}
				for id, table := range ver.ref {
					next.ref[id] = slices.Clone(table)
				}
				versions = append(versions, next)
			default:
				op = "seal"
				ver.g.Seal()
				ver.sealed = true
			}
			for _, v := range versions {
				if v != ver && v.parent != ver || v.parent == nil {
					continue
				}
				for _, pair := range [][2]*NFFG{{v.parent.g, v.g}, {v.g, v.parent.g}} {
					got, gotErr := Diff(pair[0], pair[1])
					want, wantErr := referenceDiff(pair[0], pair[1])
					if gotErr != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d step %d %s: Diff = %+v, %v; reference = %+v, %v", seed, step, op, got, gotErr, want, wantErr)
					}
				}
			}
			for k, v := range versions {
				for _, id := range infras {
					i := v.g.Infras.Get(id)
					got := slices.Collect(i.Flowrules())
					if !slices.EqualFunc(got, v.ref[id], func(a, b *Flowrule) bool { return *a == *b }) {
						t.Fatalf("seed %d step %d %s: version %d infra %s reads %v, want %v", seed, step, op, k, id, got, v.ref[id])
					}
					if i.rules.b != nil {
						shared++
					} else if len(got) > 0 {
						flat++
					}
				}
			}
		}
	}
	if shared < 1000 || flat < 1000 {
		t.Fatalf("%d shared and %d flat non-empty flowtables read: the programs do not exercise both", shared, flat)
	}
}
