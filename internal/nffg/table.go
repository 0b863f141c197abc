package nffg

import (
	"iter"
	"maps"
	"reflect"
)

// foldShare bounds what a fork inherits: a fork whose parent's overlay holds
// more than one entry per foldShare entries of its base starts flat, on a
// fresh map of its own, instead of copying that overlay. A fork therefore
// copies at most a quarter of its base.
const foldShare = 4

// Table is one node map of an NFFG — its infras, NFs or SAPs by ID — kept
// copy-on-write across generations.
//
// A table is a plain map until its graph is forked. From then on it is a
// base map that no generation writes, shared by every generation forked
// since, and an overlay that this generation owns: the entries it set, and a
// nil tombstone for each base entry it deleted. Reads look in the overlay,
// then in the base. A fork shares the base and copies only the overlay, so a
// commit costs what the generations since the base changed, not the graph;
// when the overlay outgrows a fixed share of the base (see foldShare) the
// fork folds both into a fresh flat map, which its own forks then share.
//
// All, Get, Lookup and Len read; set and delete write this generation only,
// and only the graph's mutators call them, so a graph knows every change to
// its nodes. A table is used in place, through its graph: a copied Table
// value shares its maps with the one it was copied from.
type Table[T any] struct {
	base map[ID]*T // nil on a flat table
	own  map[ID]*T // flat: every entry; otherwise what differs from base
	n    int       // entries, on a table with a base
}

// flatTable returns an empty flat table with room for n entries.
func flatTable[T any](n int) Table[T] {
	return Table[T]{own: make(map[ID]*T, n)}
}

// Lookup returns the entry with the given ID and whether there is one.
func (t *Table[T]) Lookup(id ID) (*T, bool) {
	if v, ok := t.own[id]; ok {
		return v, v != nil
	}
	v, ok := t.base[id]
	return v, ok
}

// Get returns the entry with the given ID, or nil.
func (t *Table[T]) Get(id ID) *T {
	v, _ := t.Lookup(id)
	return v
}

// Len returns the number of entries.
func (t *Table[T]) Len() int {
	if t.base == nil {
		return len(t.own)
	}
	return t.n
}

// All yields every entry once, in no particular order. The loop body may set
// or delete the entry it is visiting; an entry it sets or deletes under
// another ID may be visited twice or not at all, so loops that write other
// entries range over the sorted IDs instead.
func (t *Table[T]) All() iter.Seq2[ID, *T] {
	return func(yield func(ID, *T) bool) {
		for id, v := range t.own {
			if v != nil && !yield(id, v) {
				return
			}
		}
		for id, v := range t.base {
			if _, shadowed := t.own[id]; !shadowed && !yield(id, v) {
				return
			}
		}
	}
}

// set adds or replaces the entry with the given ID. v must not be nil.
func (t *Table[T]) set(id ID, v *T) {
	if v == nil {
		panic("nffg: Table.set of a nil entry " + string(id))
	}
	if t.base != nil {
		if _, ok := t.Lookup(id); !ok {
			t.n++
		}
	}
	if t.own == nil {
		t.own = make(map[ID]*T)
	}
	t.own[id] = v
}

// delete removes the entry with the given ID, if there is one.
func (t *Table[T]) delete(id ID) {
	if t.base == nil {
		delete(t.own, id)
		return
	}
	if _, ok := t.Lookup(id); !ok {
		return
	}
	t.n--
	if _, inBase := t.base[id]; !inBase {
		delete(t.own, id)
		return
	}
	if t.own == nil {
		t.own = make(map[ID]*T)
	}
	t.own[id] = nil
}

// fork returns the table of the next generation. A flat t becomes the
// fork's base; unless t is sealed, t moves onto that base too, since both
// may write from now on and neither may write the other's map.
func (t *Table[T]) fork(sealed bool) Table[T] {
	if t.base == nil {
		if t.own == nil {
			return Table[T]{}
		}
		next := Table[T]{base: t.own, n: len(t.own)}
		if !sealed {
			*t = next
		}
		return next
	}
	if len(t.own)*foldShare > len(t.base) {
		flat := flatTable[T](t.n)
		for id, v := range t.All() {
			flat.own[id] = v
		}
		return flat
	}
	return Table[T]{base: t.base, own: maps.Clone(t.own), n: t.n}
}

// changedIDs yields, once each, every ID whose entry may differ between a and
// b. When both read through one map — one is a flat table the other was
// forked from, or both have the same base — an ID neither overlay holds reads
// the same entry from both, and only the overlays' IDs are yielded;
// otherwise every ID of either table is.
func changedIDs[T any](a, b *Table[T]) iter.Seq[ID] {
	aBase, aOwn := a.base, a.own
	if aBase == nil {
		aBase, aOwn = a.own, nil
	}
	bBase, bOwn := b.base, b.own
	if bBase == nil {
		bBase, bOwn = b.own, nil
	}
	if aBase == nil || bBase == nil || reflect.ValueOf(aBase).UnsafePointer() != reflect.ValueOf(bBase).UnsafePointer() {
		return func(yield func(ID) bool) {
			for id := range a.All() {
				if !yield(id) {
					return
				}
			}
			for id := range b.All() {
				if _, inA := a.Lookup(id); !inA && !yield(id) {
					return
				}
			}
		}
	}
	return func(yield func(ID) bool) {
		for id := range aOwn {
			if !yield(id) {
				return
			}
		}
		for id := range bOwn {
			if _, inA := aOwn[id]; !inA && !yield(id) {
				return
			}
		}
	}
}
