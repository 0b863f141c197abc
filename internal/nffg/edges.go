package nffg

import (
	"cmp"
	"iter"
	"slices"
)

// shareMin is the shortest edge list a fork shares: copying a shorter one
// costs no more than the record that sharing it takes, and leaves the fork
// writing in place.
const shareMin = 8

// edgeList is one edge list of an NFFG — its links, SG hops or requirements
// — kept copy-on-write across generations on Table's rule.
//
// A list is a plain slice until its graph is forked. From then on it is a
// base slice that no generation writes, shared by every generation forked
// since, and an overlay that this generation owns: the base slots it replaced
// (a nil entry is a tombstone for a deleted one), in slot order, and the
// entries appended after the base. Entries read in base order, replacements
// in their slot and tombstones skipped, then the appended tail: the order a
// plain slice has after the same appends, in-place writes and order-keeping
// deletes. A fork shares the base and copies only the overlay; when the
// overlay outgrows a fixed share of the base (see foldShare), or the list is
// short (see shareMin), the fork starts flat on a fresh slice instead, which
// its own forks then share.
//
// The base and the replaced slots sit behind one pointer, so a list costs its
// graph a slice and a pointer: graphs are many, and most are never forked.
type edgeList[T any] struct {
	tail []*T         // appended after the base; on a flat list, every entry
	b    *edgeBase[T] // nil on a flat list
}

// edgeBase is the base of a forked list and the base slots the list replaced.
// A record without a replaced slot may be shared by several lists and is
// never written; one with replaced slots belongs to one list.
type edgeBase[T any] struct {
	base []*T
	over []edgeSlot[T] // the replaced base slots, by ascending slot
	dead int           // tombstones in over
}

// edgeSlot is a replaced base slot: v[0] stands in for base[at], or deletes
// it when nil. v is an array so that a run can yield it as a slice.
type edgeSlot[T any] struct {
	at int
	v  [1]*T
}

// base returns the list's base slice: nil on a flat list.
func (l *edgeList[T]) base() []*T {
	if l.b == nil {
		return nil
	}
	return l.b.base
}

// len returns the number of entries.
func (l *edgeList[T]) len() int {
	if l.b == nil {
		return len(l.tail)
	}
	return len(l.b.base) - l.b.dead + len(l.tail)
}

// runs yields the entries in order as runs of consecutive entries, each with
// the slot of its first entry: its index in the base, or len(base) plus its
// index in the tail. A slot names an entry for set until the next delete.
func (l *edgeList[T]) runs() iter.Seq2[int, []*T] {
	return func(yield func(int, []*T) bool) {
		base := l.base()
		if b := l.b; b != nil {
			from := 0
			for k := range b.over {
				s := &b.over[k]
				if from < s.at && !yield(from, base[from:s.at]) {
					return
				}
				if s.v[0] != nil && !yield(s.at, s.v[:]) {
					return
				}
				from = s.at + 1
			}
			if from < len(base) && !yield(from, base[from:]) {
				return
			}
		}
		if len(l.tail) > 0 {
			yield(len(base), l.tail)
		}
	}
}

// all yields every entry in order.
func (l *edgeList[T]) all() iter.Seq[*T] {
	return func(yield func(*T) bool) {
		for _, run := range l.runs() {
			for _, v := range run {
				if !yield(v) {
					return
				}
			}
		}
	}
}

// add appends v.
func (l *edgeList[T]) add(v *T) { l.tail = append(l.tail, v) }

// grow makes room for n more appends.
func (l *edgeList[T]) grow(n int) { l.tail = slices.Grow(l.tail, n) }

// set replaces the entry at a slot (see runs) with v, which must not be nil.
func (l *edgeList[T]) set(at int, v *T) {
	if n := len(l.base()); at >= n {
		l.tail[at-n] = v
		return
	}
	l.put(at, v)
}

// put records v for base slot at in the overlay.
func (l *edgeList[T]) put(at int, v *T) {
	b := l.b
	if len(b.over) == 0 {
		// A record without a replaced slot may be shared: start this list's
		// own, with room for a commit's few writes.
		b = &edgeBase[T]{base: b.base, over: make([]edgeSlot[T], 0, 4)}
		l.b = b
	}
	k, found := slices.BinarySearchFunc(b.over, at, func(s edgeSlot[T], at int) int { return cmp.Compare(s.at, at) })
	if !found {
		b.over = slices.Insert(b.over, k, edgeSlot[T]{at: at})
	}
	b.over[k].v[0] = v
}

// deleteFunc removes every entry del accepts, visiting entries in order and
// keeping the order of the rest.
func (l *edgeList[T]) deleteFunc(del func(*T) bool) {
	var buf [4]int
	gone := buf[:0]
	n := len(l.base())
	for at, run := range l.runs() {
		if at >= n {
			break
		}
		for i, v := range run {
			if del(v) {
				gone = append(gone, at+i)
			}
		}
	}
	for _, at := range gone {
		l.put(at, nil)
		l.b.dead++
	}
	l.tail = slices.DeleteFunc(l.tail, del)
}

// flat returns the entries as one slice: the list's own on a flat list, which
// the caller must not write, and a fresh one otherwise.
func (l *edgeList[T]) flat() []*T {
	if l.b == nil {
		return l.tail
	}
	return slices.AppendSeq(make([]*T, 0, l.len()), l.all())
}

// clone returns a flat list of each(v) for every entry v, in order.
func (l *edgeList[T]) clone(each func(*T) *T) edgeList[T] {
	if l.len() == 0 {
		return edgeList[T]{}
	}
	out := make([]*T, 0, l.len())
	for v := range l.all() {
		out = append(out, each(v))
	}
	return edgeList[T]{tail: out}
}

// fork returns the list of the next generation. A flat l becomes the fork's
// base; unless l is sealed, l moves onto that base too, since both may write
// from now on and neither may write the other's slice. The fork shares l's
// base record while the record replaces no slot.
func (l *edgeList[T]) fork(sealed bool) edgeList[T] {
	n := l.len()
	switch {
	case n == 0:
		return edgeList[T]{}
	case n < shareMin:
		return edgeList[T]{tail: slices.AppendSeq(make([]*T, 0, n), l.all())}
	case l.b == nil:
		next := edgeList[T]{b: &edgeBase[T]{base: l.tail}}
		if !sealed {
			*l = next
		}
		return next
	}
	b := l.b
	if (len(b.over)+len(l.tail))*foldShare > len(b.base) {
		return edgeList[T]{tail: l.flat()}
	}
	if len(b.over) > 0 {
		b = &edgeBase[T]{base: b.base, over: slices.Clone(b.over), dead: b.dead}
	}
	return edgeList[T]{tail: slices.Clone(l.tail), b: b}
}

// appendChanges appends to ra the entries of a, and to rb those of b, in
// which two generations of one list differ, each in list order, and reports
// whether it could tell them apart without reading the whole lists: when a
// and b read one base (one is a fork of the other, or both of one base),
// the entries at the base slots either replaced, less a slot both hold
// under one pointer, then their tails less the prefix the tails share.
// Otherwise it appends nothing and reports false.
func appendChanges[T any](ra, rb []*T, a, b *edgeList[T]) (_, _ []*T, ok bool) {
	base := b.base()
	if base == nil {
		base = a.base()
	}
	if base == nil {
		base = a.tail // two flat lists read one base only if they are one
	}
	ao, at, aok := a.overlayOn(base)
	bo, bt, bok := b.overlayOn(base)
	if !aok || !bok {
		return ra, rb, false
	}
	for len(ao) > 0 || len(bo) > 0 {
		var av, bv *T
		switch {
		case len(bo) == 0 || len(ao) > 0 && ao[0].at < bo[0].at:
			av, bv = ao[0].v[0], base[ao[0].at]
			ao = ao[1:]
		case len(ao) == 0 || bo[0].at < ao[0].at:
			av, bv = base[bo[0].at], bo[0].v[0]
			bo = bo[1:]
		default:
			av, bv = ao[0].v[0], bo[0].v[0]
			ao, bo = ao[1:], bo[1:]
		}
		if av == bv {
			continue
		}
		if av != nil {
			ra = append(ra, av)
		}
		if bv != nil {
			rb = append(rb, bv)
		}
	}
	same := 0
	for same < len(at) && same < len(bt) && at[same] == bt[same] {
		same++
	}
	return append(ra, at[same:]...), append(rb, bt[same:]...), true
}

// overlayOn returns the base slots l replaced and the entries it appended,
// if l reads base: as a generation on it, or as the flat list base is.
func (l *edgeList[T]) overlayOn(base []*T) (over []edgeSlot[T], tail []*T, ok bool) {
	same := func(s []*T) bool { return len(s) == len(base) && (len(s) == 0 || &s[0] == &base[0]) }
	switch {
	case l.b != nil && same(l.b.base):
		return l.b.over, l.tail, true
	case l.b == nil && same(l.tail):
		return nil, nil, true
	}
	return nil, nil, false
}
