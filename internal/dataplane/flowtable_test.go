package dataplane

import (
	"fmt"
	"testing"
	"testing/quick"
)

func pkt(tag string) *Packet {
	p := NewPacket("a", "b", 1, 100)
	p.Tag = tag
	return p
}

func TestMatchSemantics(t *testing.T) {
	cases := []struct {
		m      Match
		tag    string
		inPort int
		want   bool
	}{
		{Match{InPort: 1, Tag: "x"}, "x", 1, true},
		{Match{InPort: 1, Tag: "x"}, "y", 1, false},
		{Match{InPort: 1, Tag: "x"}, "x", 2, false},
		{Match{InPort: 1}, "", 1, true},   // untagged match
		{Match{InPort: 1}, "x", 1, false}, // tagged packet vs untagged match
		{Match{InPort: 1, AnyTag: true}, "x", 1, true},
		{Match{InPort: 1, AnyTag: true}, "", 1, true},
	}
	for i, c := range cases {
		if got := c.m.Matches(pkt(c.tag), c.inPort); got != c.want {
			t.Errorf("case %d: %v vs tag=%q in=%d: got %v want %v", i, c.m, c.tag, c.inPort, got, c.want)
		}
	}
}

func TestFlowTablePriority(t *testing.T) {
	ft := NewFlowTable()
	ft.Install(&Rule{ID: "low", Priority: 1, Match: Match{InPort: 1, AnyTag: true}, Action: Action{OutPort: 9}})
	ft.Install(&Rule{ID: "high", Priority: 10, Match: Match{InPort: 1, Tag: "x"}, Action: Action{OutPort: 2}})
	r := ft.Lookup(pkt("x"), 1)
	if r == nil || r.ID != "high" {
		t.Fatalf("high-priority rule should win, got %+v", r)
	}
	r = ft.Lookup(pkt("other"), 1)
	if r == nil || r.ID != "low" {
		t.Fatalf("fallback rule should catch, got %+v", r)
	}
}

func TestFlowTableReplaceByID(t *testing.T) {
	ft := NewFlowTable()
	ft.Install(&Rule{ID: "r", Match: Match{InPort: 1, AnyTag: true}, Action: Action{OutPort: 2}})
	ft.Install(&Rule{ID: "r", Match: Match{InPort: 1, AnyTag: true}, Action: Action{OutPort: 3}})
	if ft.Len() != 1 {
		t.Fatalf("same-ID install must replace, got %d rules", ft.Len())
	}
	if r := ft.Lookup(pkt(""), 1); r.Action.OutPort != 3 {
		t.Fatalf("replacement not effective: %+v", r.Action)
	}
}

func TestFlowTableRemove(t *testing.T) {
	ft := NewFlowTable()
	ft.Install(&Rule{ID: "a", Match: Match{InPort: 1, AnyTag: true}, Action: Action{OutPort: 2}})
	ft.Install(&Rule{ID: "b", Match: Match{InPort: 2, AnyTag: true}, Action: Action{OutPort: 1}})
	if !ft.Remove("a") {
		t.Fatal("remove existing rule should return true")
	}
	if ft.Remove("a") {
		t.Fatal("double remove should return false")
	}
	if ft.Len() != 1 {
		t.Fatalf("want 1 rule, got %d", ft.Len())
	}
	n := ft.RemoveByMatch(Match{InPort: 2, AnyTag: true})
	if n != 1 || ft.Len() != 0 {
		t.Fatalf("RemoveByMatch failed: n=%d len=%d", n, ft.Len())
	}
}

func TestFlowTableCounters(t *testing.T) {
	ft := NewFlowTable()
	r := &Rule{ID: "r", Match: Match{InPort: 1, AnyTag: true}, Action: Action{OutPort: 2}}
	ft.Install(r)
	for i := 0; i < 5; i++ {
		ft.Lookup(pkt(""), 1)
	}
	ft.Lookup(pkt(""), 99) // miss
	pk, by := r.Counters()
	if pk != 5 || by != 500 {
		t.Fatalf("want 5 packets/500 bytes, got %d/%d", pk, by)
	}
	if ft.Misses() != 1 {
		t.Fatalf("want 1 miss, got %d", ft.Misses())
	}
}

// Property: lookup returns the highest-priority matching rule, regardless of
// install order.
func TestFlowTablePriorityProperty(t *testing.T) {
	f := func(prios []uint8) bool {
		if len(prios) == 0 {
			return true
		}
		ft := NewFlowTable()
		best := -1
		for i, pr := range prios {
			ft.Install(&Rule{
				ID:       fmt.Sprintf("r%d", i),
				Priority: int(pr),
				Match:    Match{InPort: 1, AnyTag: true},
				Action:   Action{OutPort: i},
			})
			if int(pr) > best {
				best = int(pr)
			}
		}
		got := ft.Lookup(pkt(""), 1)
		return got != nil && got.Priority == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
