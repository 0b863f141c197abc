package bench

import (
	"fmt"
	"sort"
)

// spanStats is what the spans of a traced window say, in milliseconds.
type spanStats struct {
	// dur and self are every span's duration and self time, by span name. A
	// span's self time is its duration minus the part of it its children
	// cover — their union, since the children of a fan-out run in parallel.
	dur, self map[string][]float64
	// children counts the per-child install spans below the MdO's fan-out.
	children int

	// Per traced install request, along the steps its result waited for (of
	// parallel children, the one that finished last):
	total    []float64 // the client's span
	north    []float64 // its self time over HTTP: the northbound hop
	hop      []float64 // the child span's self time: the southbound hop
	measured []float64 // time inside recorded boundaries: both admission waits, MdO self, journal, leaf self, programming; in-process also the service layer
}

func ms(ns int64) float64 { return float64(ns) * msPerNS }

func analyze(spans []Span) spanStats {
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	kids := map[int][]Span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := func(s Span) float64 { return ms(s.End - s.Start - covered(s, kids[s.ID])) }
	for _, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], ms(s.End-s.Start))
		st.self[s.Name] = append(st.self[s.Name], self(s))
	}
	named := func(parent Span, names ...string) (out []Span) {
		for _, k := range kids[parent.ID] {
			for _, n := range names {
				if k.Name == n {
					out = append(out, k)
				}
			}
		}
		return out
	}
	sum := func(spans []Span) (total float64) {
		for _, s := range spans {
			total += ms(s.End - s.Start)
		}
		return total
	}
	for _, root := range kids[0] {
		ros := named(root, spanROInstall) // a retried install has one per try
		if root.Name != spanClientInstall || len(ros) == 0 {
			continue
		}
		measured := sum(named(root, spanJournal))
		var last *Span // the child install the result waited for
		for _, ro := range ros {
			measured += self(ro) + sum(named(ro, spanJournal))
			for _, c := range named(ro, spanChildInstall, spanLOInstall) {
				st.children++
				if last == nil || c.End > last.End {
					last = &c
				}
			}
		}
		if last == nil {
			continue // refused before the fan-out
		}
		lo := *last
		if last.Name == spanChildInstall {
			waits, leafWaits, los := named(root, spanAdmissionWait), named(*last, spanAdmissionWait), named(*last, spanLOInstall)
			if len(waits) == 0 || len(leafWaits) == 0 || len(los) != 1 {
				continue // a queue had already dropped the job's record
			}
			lo = los[0]
			measured += sum(waits) + sum(leafWaits)
			st.north = append(st.north, self(root))
			st.hop = append(st.hop, self(*last))
		} else {
			measured += self(root) // in-process, the client's span is the service layer's
		}
		measured += self(lo) + sum(named(lo, spanSouthbound))
		st.total = append(st.total, ms(root.End-root.Start))
		st.measured = append(st.measured, measured)
	}
	return st
}

// covered is how much of parent its children cover: the length of the union
// of their intervals, clipped to the parent's.
func covered(parent Span, children []Span) int64 {
	if len(children) == 0 {
		return 0
	}
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total int64
	at := parent.Start
	for _, c := range children {
		start, end := max(c.Start, at), min(c.End, parent.End)
		if end > start {
			total += end - start
			at = end
		}
	}
	return total
}

// CheckSpans verifies the shape the self-time arithmetic relies on: every
// span lies inside its parent, every request has exactly one root, and only
// the load generator's spans are roots.
func CheckSpans(spans []Span) error {
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	roots := map[string]int{}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s %s) ends before it starts", s.ID, s.Name, s.Req)
		}
		if s.Parent == 0 {
			switch s.Name {
			case spanClientInstall, spanClientRemove, spanClientView:
				roots[s.Name+" "+s.Req]++
			default:
				return fmt.Errorf("span %d (%s %s) has no parent", s.ID, s.Name, s.Req)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s %s): parent %d was never finished", s.ID, s.Name, s.Req, s.Parent)
		}
		if p.Req != s.Req {
			return fmt.Errorf("span %d (%s) of request %s hangs under request %s", s.ID, s.Name, s.Req, p.Req)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s %s) [%d,%d] leaves its parent %s [%d,%d]",
				s.ID, s.Name, s.Req, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for op, n := range roots {
		if n != 1 {
			return fmt.Errorf("%d roots for %s, want 1", n, op)
		}
	}
	return nil
}
