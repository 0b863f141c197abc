package dataplane

import (
	"fmt"
	"sort"
	"sync"
)

// Match selects packets within a switch. The zero value matches nothing
// useful; set InPort at minimum. AnyTag ignores the tag entirely; otherwise
// Tag=="" matches untagged packets only. Dst, when set, additionally matches
// the packet's service-level destination endpoint (ingress classification).
type Match struct {
	InPort int
	Tag    string
	AnyTag bool
	Dst    Endpoint
}

// Matches reports whether a packet arriving on inPort satisfies the match.
func (m Match) Matches(p *Packet, inPort int) bool {
	if m.InPort != inPort {
		return false
	}
	if m.Dst != "" && p.Flow.Dst != m.Dst {
		return false
	}
	if m.AnyTag {
		return true
	}
	return m.Tag == p.Tag
}

func (m Match) String() string {
	if m.AnyTag {
		return fmt.Sprintf("in=%d,tag=*", m.InPort)
	}
	if m.Tag == "" {
		return fmt.Sprintf("in=%d,untagged", m.InPort)
	}
	return fmt.Sprintf("in=%d,tag=%s", m.InPort, m.Tag)
}

// Action rewrites and forwards a matched packet. Tag ops run before output.
type Action struct {
	OutPort int
	PushTag string
	PopTag  bool
	Drop    bool
}

func (a Action) String() string {
	if a.Drop {
		return "drop"
	}
	s := ""
	if a.PopTag {
		s += "untag;"
	}
	if a.PushTag != "" {
		s += "tag=" + a.PushTag + ";"
	}
	return s + fmt.Sprintf("out=%d", a.OutPort)
}

// Rule is one flow-table entry with counters.
type Rule struct {
	ID       string
	Priority int
	Match    Match
	Action   Action

	packets uint64
	bytes   uint64
}

// Counters returns the rule's matched packet and byte counts.
func (r *Rule) Counters() (packets, bytes uint64) { return r.packets, r.bytes }

// FlowTable is a priority-ordered rule list with exact-match semantics on
// (in-port, tag). It is safe for concurrent use: domains mutate tables from
// control goroutines while the engine forwards.
type FlowTable struct {
	mu    sync.RWMutex
	rules []*Rule
	// misses counts lookups that matched nothing.
	misses uint64
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable { return &FlowTable{} }

// Install adds a rule, keeping the table sorted by descending priority then
// insertion order. A rule with a duplicate non-empty ID replaces the old one.
func (t *FlowTable) Install(r *Rule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r.ID != "" {
		for i, old := range t.rules {
			if old.ID == r.ID {
				t.rules[i] = r
				t.sortLocked()
				return
			}
		}
	}
	t.rules = append(t.rules, r)
	t.sortLocked()
}

func (t *FlowTable) sortLocked() {
	sort.SliceStable(t.rules, func(i, j int) bool {
		return t.rules[i].Priority > t.rules[j].Priority
	})
}

// Remove deletes the rule with the given ID; it reports whether one existed.
func (t *FlowTable) Remove(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, r := range t.rules {
		if r.ID == id {
			t.rules = append(t.rules[:i], t.rules[i+1:]...)
			return true
		}
	}
	return false
}

// RemoveByMatch deletes all rules with exactly this match; returns the count.
func (t *FlowTable) RemoveByMatch(m Match) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	kept := t.rules[:0]
	for _, r := range t.rules {
		if r.Match == m {
			n++
			continue
		}
		kept = append(kept, r)
	}
	t.rules = kept
	return n
}

// Lookup returns the highest-priority rule matching the packet, updating the
// rule counters, or nil on miss.
func (t *FlowTable) Lookup(p *Packet, inPort int) *Rule {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.rules {
		if r.Match.Matches(p, inPort) {
			r.packets++
			r.bytes += uint64(p.Size)
			return r
		}
	}
	t.misses++
	return nil
}

// LookupBatchInto matches a batch of packets arriving on one port in a single
// table pass (one lock acquisition for the whole batch), writing the matched
// rules into out, which must have len(ps) entries. This is the DPDK-style
// amortization the Universal Node's accelerated LSIs use; the E5 ablation
// bench compares it against per-packet Lookup.
func (t *FlowTable) LookupBatchInto(ps []*Packet, inPort int, out []*Rule) []*Rule {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, p := range ps {
		out[i] = nil
		for _, r := range t.rules {
			if r.Match.Matches(p, inPort) {
				r.packets++
				r.bytes += uint64(p.Size)
				out[i] = r
				break
			}
		}
		if out[i] == nil {
			t.misses++
		}
	}
	return out
}

// Rules returns a snapshot of the table in priority order.
func (t *FlowTable) Rules() []*Rule {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*Rule(nil), t.rules...)
}

// Len returns the number of installed rules.
func (t *FlowTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rules)
}

// Misses returns the lookup-miss counter.
func (t *FlowTable) Misses() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.misses
}

// apply executes the action's rewrite part on the packet (not the output).
func (a Action) apply(p *Packet) {
	if a.PopTag {
		p.Tag = ""
	}
	if a.PushTag != "" {
		p.Tag = a.PushTag
	}
}
