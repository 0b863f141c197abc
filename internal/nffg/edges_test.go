package nffg

import (
	"fmt"
	"math/rand"
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
