package nffg

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// tableVersion is one generation in the table oracle: the table under test
// and the reference map it must read as.
type tableVersion struct {
	t      *Table[int]
	ref    map[ID]*int
	sealed bool
}

// checkTable fails unless t reads exactly as ref through every accessor.
func checkTable(t *testing.T, at string, tab *Table[int], ref map[ID]*int, universe []ID) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("%s: Len %d, want %d", at, tab.Len(), len(ref))
	}
	for _, id := range universe {
		got, ok := tab.Lookup(id)
		want, wantOK := ref[id]
		if ok != wantOK || got != want || tab.Get(id) != want {
			t.Fatalf("%s: Lookup(%s) = %p, %v; want %p, %v", at, id, got, ok, want, wantOK)
		}
	}
	seen := map[ID]bool{}
	for id, v := range tab.All() {
		if seen[id] || ref[id] != v {
			t.Fatalf("%s: All yielded %s (again: %v) as %p, want %p", at, id, seen[id], v, ref[id])
		}
		seen[id] = true
	}
	if len(seen) != len(ref) {
		t.Fatalf("%s: All yielded %d entries, want %d", at, len(seen), len(ref))
	}
}

// TestTableMatchesReference runs seeded random Set/Delete/Fork/Seal programs
// on tables against a reference map kept per version. Versions fork from
// sealed and from unsealed parents and from forks of forks, and write enough
// to fold overlays. After every step every version, including each one a
// later step forked or sealed, reads exactly as its reference, and
// changedIDs between any two versions yields, once each, every ID they read
// differently.
func TestTableMatchesReference(t *testing.T) {
	universe := make([]ID, 48)
	for i := range universe {
		universe[i] = ID(fmt.Sprintf("n%02d", i))
	}
	folds, overlays := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		root := &tableVersion{t: &Table[int]{}, ref: map[ID]*int{}}
		for _, id := range universe[:rng.Intn(len(universe))] {
			v := new(int)
			root.t.set(id, v)
			root.ref[id] = v
		}
		versions := []*tableVersion{root}
		for step := 0; step < 200; step++ {
			var writable []*tableVersion
			for _, v := range versions {
				if !v.sealed {
					writable = append(writable, v)
				}
			}
			ver := versions[rng.Intn(len(versions))]
			id := universe[rng.Intn(len(universe))]
			var op string
			switch r := rng.Intn(20); {
			case r < 14 && len(writable) > 0:
				ver = writable[rng.Intn(len(writable))]
				if r < 9 {
					op = "Set"
					v := new(int)
					*v = step
					ver.t.set(id, v)
					ver.ref[id] = v
				} else {
					op = "Delete"
					ver.t.delete(id)
					delete(ver.ref, id)
				}
			case r < 18:
				op = fmt.Sprintf("Fork (sealed parent %v)", ver.sealed)
				next := ver.t.fork(ver.sealed)
				switch {
				case next.base == nil && ver.t.base != nil:
					folds++
				case next.own != nil:
					overlays++
				}
				versions = append(versions, &tableVersion{t: &next, ref: maps.Clone(ver.ref)})
			default:
				op = "Seal"
				ver.sealed = true
			}
			for i, v := range versions {
				checkTable(t, fmt.Sprintf("seed %d step %d %s %s: version %d", seed, step, op, id, i), v.t, v.ref, universe)
			}
			a, b := versions[rng.Intn(len(versions))], versions[rng.Intn(len(versions))]
			yielded := map[ID]bool{}
			for id := range changedIDs(a.t, b.t) {
				if yielded[id] {
					t.Fatalf("seed %d step %d: changedIDs yielded %s twice", seed, step, id)
				}
				yielded[id] = true
			}
			for _, id := range universe {
				if a.ref[id] != b.ref[id] && !yielded[id] {
					t.Fatalf("seed %d step %d: changedIDs missed %s", seed, step, id)
				}
			}
		}
	}
	if folds < 100 || overlays < 100 {
		t.Fatalf("%d folds and %d forks that copied an overlay: the programs do not exercise both", folds, overlays)
	}
}
