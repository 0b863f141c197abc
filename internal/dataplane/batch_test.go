package dataplane

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: LookupBatchInto returns exactly what per-packet Lookup would, for
// arbitrary rule sets and packet batches (counters included).
func TestLookupBatchEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *FlowTable {
			ft := NewFlowTable()
			n := 1 + rng.Intn(12)
			for i := 0; i < n; i++ {
				ft.Install(&Rule{
					ID:       fmt.Sprintf("r%d", i),
					Priority: rng.Intn(5),
					Match: Match{
						InPort: 1 + rng.Intn(3),
						Tag:    fmt.Sprintf("t%d", rng.Intn(3)),
						AnyTag: rng.Intn(4) == 0,
					},
					Action: Action{OutPort: rng.Intn(8)},
				})
			}
			return ft
		}
		// Two identical tables: one driven per-packet, one batched. The
		// inner rule state differs per table, so rebuild with same seed.
		seq := rng.Int63()
		rngA := rand.New(rand.NewSource(seq))
		rngB := rand.New(rand.NewSource(seq))
		_ = rngA
		_ = rngB
		ftA := mk()
		// Rebuild an identical table (same generator state trick: regenerate
		// from a snapshot of the rules).
		ftB := NewFlowTable()
		for _, r := range ftA.Rules() {
			cp := *r
			ftB.Install(&cp)
		}
		var pkts []*Packet
		inPort := 1 + rng.Intn(3)
		for i := 0; i < 1+rng.Intn(20); i++ {
			p := NewPacket("a", "b", uint64(i), 64+rng.Intn(1000))
			p.Tag = fmt.Sprintf("t%d", rng.Intn(3))
			pkts = append(pkts, p)
		}
		batchRes := ftB.LookupBatchInto(pkts, inPort, make([]*Rule, len(pkts)))
		for i, p := range pkts {
			single := ftA.Lookup(p, inPort)
			switch {
			case single == nil && batchRes[i] == nil:
			case single == nil || batchRes[i] == nil:
				return false
			case single.ID != batchRes[i].ID:
				return false
			}
		}
		if ftA.Misses() != ftB.Misses() {
			return false
		}
		// Counters per rule must agree.
		rulesA, rulesB := ftA.Rules(), ftB.Rules()
		for i := range rulesA {
			pa, ba := rulesA[i].Counters()
			pb, bb := rulesB[i].Counters()
			if pa != pb || ba != bb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupBatchDstClassification(t *testing.T) {
	ft := NewFlowTable()
	ft.Install(&Rule{ID: "toB", Priority: 10, Match: Match{InPort: 1, AnyTag: true, Dst: "B"}, Action: Action{OutPort: 2}})
	ft.Install(&Rule{ID: "toC", Priority: 10, Match: Match{InPort: 1, AnyTag: true, Dst: "C"}, Action: Action{OutPort: 3}})
	pb := NewPacket("a", "B", 1, 10)
	pc := NewPacket("a", "C", 2, 10)
	px := NewPacket("a", "X", 3, 10)
	res := ft.LookupBatchInto([]*Packet{pb, pc, px}, 1, make([]*Rule, 3))
	if res[0] == nil || res[0].ID != "toB" {
		t.Fatalf("pb: %+v", res[0])
	}
	if res[1] == nil || res[1].ID != "toC" {
		t.Fatalf("pc: %+v", res[1])
	}
	if res[2] != nil {
		t.Fatalf("px should miss: %+v", res[2])
	}
	if ft.Misses() != 1 {
		t.Fatalf("misses: %d", ft.Misses())
	}
}

func TestMatchDstSemantics(t *testing.T) {
	m := Match{InPort: 1, AnyTag: true, Dst: "B"}
	okPkt := NewPacket("a", "B", 1, 10)
	okPkt.Tag = "whatever"
	if !m.Matches(okPkt, 1) {
		t.Fatal("dst B should match")
	}
	if m.Matches(NewPacket("a", "C", 1, 10), 1) {
		t.Fatal("dst C should not match")
	}
	// Empty Dst is a wildcard.
	any := Match{InPort: 1, AnyTag: true}
	if !any.Matches(NewPacket("a", "C", 1, 10), 1) {
		t.Fatal("empty dst should wildcard")
	}
}
