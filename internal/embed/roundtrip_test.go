package embed

// Fuzz/property tests for the ApplyTo/ApplyScoped ↔ Release round trip: for
// any mappable request, applying the mapping and then releasing it must
// restore the substrate byte-for-byte (modulo the monotonic Version counter,
// which is deliberately bump-only). This guards the shard-scoped apply path:
// a shard receives exactly its slice of a mapping, and Release backs that
// slice out exactly.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
)

// fuzzSubstrate builds a 4-BiS-BiS ring across two "domains" with one user
// SAP per node — enough path and placement diversity for the decoded
// requests to exercise multi-hop routing, co-location and rule generation.
func fuzzSubstrate() *nffg.NFFG {
	b := nffg.NewBuilder("fuzz-sub")
	var nodes []nffg.ID
	for i := 0; i < 4; i++ {
		id := nffg.ID(fmt.Sprintf("bb%d", i))
		b.BiSBiS(id, fmt.Sprintf("dom%d", i%2), 6, nffg.Resources{CPU: 32, Mem: 1 << 14, Storage: 64},
			"fw", "dpi", "nat")
		nodes = append(nodes, id)
	}
	for i := 0; i < 4; i++ {
		b.Link(fmt.Sprintf("r%d", i), nodes[i], "2", nodes[(i+1)%4], "1", 1000, 0.5)
	}
	for i := 0; i < 4; i++ {
		sap := nffg.ID(fmt.Sprintf("s%d", i))
		b.SAP(sap)
		b.Link(fmt.Sprintf("u%d", i), sap, "1", nodes[i], "3", 1000, 0.5)
	}
	return b.MustBuild()
}

// requestFromBytes decodes a chain request from fuzz data: byte 0 picks the
// NF count, byte 1 the SAP pair, byte 2 the bandwidth, and one byte per NF
// selects its type and an optional host pin. Returns nil when the data is too
// short or degenerate.
func requestFromBytes(data []byte) *nffg.NFFG {
	if len(data) < 4 {
		return nil
	}
	k := 1 + int(data[0])%3
	if len(data) < 3+k {
		return nil
	}
	sapA := int(data[1]) % 4
	sapB := (sapA + 1 + int(data[1]/4)%3) % 4
	if sapA == sapB {
		return nil
	}
	bw := 1 + float64(data[2]%5)
	types := []string{"fw", "dpi", "nat"}
	in := nffg.ID(fmt.Sprintf("s%d", sapA))
	out := nffg.ID(fmt.Sprintf("s%d", sapB))
	b := nffg.NewBuilder("fuzz-req").SAP(in).SAP(out)
	chain := []nffg.ID{in}
	pins := map[nffg.ID]nffg.ID{}
	for i := 0; i < k; i++ {
		sel := data[3+i]
		nf := nffg.ID(fmt.Sprintf("fz-nf%d", i))
		b.NF(nf, types[int(sel)%len(types)], 2, nffg.Resources{CPU: 2, Mem: 256, Storage: 2})
		if pin := int(sel/8) % 5; pin > 0 {
			pins[nf] = nffg.ID(fmt.Sprintf("bb%d", pin-1))
		}
		chain = append(chain, nf)
	}
	chain = append(chain, out)
	b.Chain("fz", bw, 0, chain...)
	g, err := b.Build()
	if err != nil {
		return nil
	}
	for nf, host := range pins {
		g.NFs.Get(nf).Host = host
	}
	return g
}

func encodeCanonical(t testing.TB, g *nffg.NFFG) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// roundTrip maps req on sub, applies the mapping in place, releases it, and
// asserts the graph is restored byte-for-byte (Version neutralized: the
// counter is bump-only by design). Returns whether the request mapped.
func roundTrip(t *testing.T, sub, req *nffg.NFFG) bool {
	t.Helper()
	mp, err := NewDefault().Map(sub, req)
	if err != nil {
		return false // unmappable fuzz spec: nothing to check
	}
	g := sub.Copy()
	orig := encodeCanonical(t, g)
	version := g.Version
	if err := ApplyTo(g, mp); err != nil {
		// A mapping the mapper just produced against this exact snapshot must
		// apply cleanly.
		t.Fatalf("ApplyTo of a fresh mapping failed: %v", err)
	}
	if err := Release(g, mp); err != nil {
		t.Fatalf("Release failed: %v", err)
	}
	g.Version = version
	after := encodeCanonical(t, g)
	if !bytes.Equal(orig, after) {
		t.Fatalf("apply+release did not restore the substrate:\n-- before --\n%s\n-- after --\n%s", orig, after)
	}
	return true
}

// FuzzApplyReleaseRoundTrip: for arbitrary generated chains, ApplyTo then
// Release restores the substrate byte-for-byte.
func FuzzApplyReleaseRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 1, 2, 9, 17})
	f.Add([]byte{2, 5, 4, 33, 14, 27})
	f.Add([]byte{2, 2, 1, 8, 16, 24})
	f.Add([]byte{0, 6, 3, 40})
	sub := fuzzSubstrate()
	f.Fuzz(func(t *testing.T, data []byte) {
		req := requestFromBytes(data)
		if req == nil {
			t.Skip()
		}
		roundTrip(t, sub, req)
	})
}

// TestApplyReleaseRoundTripProperty is the deterministic slice of the fuzz
// property: a fixed sweep of decoded specs must all round-trip (and enough of
// them must actually map for the test to mean something).
func TestApplyReleaseRoundTripProperty(t *testing.T) {
	sub := fuzzSubstrate()
	mapped := 0
	for a := 0; a < 3; a++ {
		for b := 0; b < 12; b++ {
			for c := 0; c < 5; c++ {
				for d := 0; d < 40; d += 7 {
					req := requestFromBytes([]byte{byte(a), byte(b), byte(c), byte(d), byte(d + 11), byte(d + 23)})
					if req == nil {
						continue
					}
					if roundTrip(t, sub, req) {
						mapped++
					}
				}
			}
		}
	}
	if mapped < 20 {
		t.Fatalf("property sweep too weak: only %d specs mapped", mapped)
	}
}

// TestApplyScopedRoundTrip checks the sharded projection: a mapping planned
// on a merged two-shard graph, projected per shard with ApplyScoped, places
// every NF in exactly one shard, programs the same rule count as the full
// apply, and releases back to each shard's original bytes.
func TestApplyScopedRoundTrip(t *testing.T) {
	mkShard := func(name string, sapIn, sapOut nffg.ID, border nffg.ID, borderFirst bool) *nffg.NFFG {
		node := nffg.ID(name + "-n")
		b := nffg.NewBuilder(name).
			BiSBiS(node, name, 6, nffg.Resources{CPU: 16, Mem: 8192, Storage: 16}, "fw", "nat").
			SAP(sapIn).SAP(sapOut).SAP(border)
		b.Link("ui@"+name, sapIn, "1", node, "1", 1000, 1)
		b.Link("uo@"+name, node, "2", sapOut, "1", 1000, 1)
		if borderFirst {
			b.Link("b@"+name, node, "3", border, "1", 1000, 1)
		} else {
			b.Link("b@"+name, border, "1", node, "3", 1000, 1)
		}
		return b.MustBuild()
	}
	shardA := mkShard("A", "a-in", "a-out", "x", true)
	shardB := mkShard("B", "b-in", "b-out", "x", false)

	merged := nffg.New("merged")
	if err := merged.Merge(shardA); err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(shardB); err != nil {
		t.Fatal(err)
	}

	req := nffg.NewBuilder("svc").
		SAP("a-in").SAP("b-out").
		NF("svc-fw", "fw", 2, nffg.Resources{CPU: 2, Mem: 512, Storage: 2}).
		NF("svc-nat", "nat", 2, nffg.Resources{CPU: 2, Mem: 512, Storage: 2}).
		Chain("svc", 2, 0, "a-in", "svc-fw", "svc-nat", "b-out").
		MustBuild()
	req.NFs.Get("svc-fw").Host = "A-n"
	req.NFs.Get("svc-nat").Host = "B-n"

	mp, err := NewDefault().Map(merged, req)
	if err != nil {
		t.Fatal(err)
	}
	ref := merged.Copy()
	if err := ApplyTo(ref, mp); err != nil {
		t.Fatal(err)
	}
	fullRules := 0
	for _, id := range ref.InfraIDs() {
		fullRules += len(slices.Collect(ref.Infras.Get(id).Flowrules()))
	}

	origA, origB := encodeCanonical(t, shardA), encodeCanonical(t, shardB)
	verA, verB := shardA.Version, shardB.Version
	if err := ApplyScoped(shardA, ref, mp, true); err != nil { // home shard: bookkeeping
		t.Fatal(err)
	}
	if err := ApplyScoped(shardB, ref, mp, false); err != nil {
		t.Fatal(err)
	}

	// Every NF in exactly one shard.
	if _, ok := shardA.NFs.Lookup("svc-fw"); !ok {
		t.Fatal("svc-fw missing from shard A")
	}
	if _, ok := shardB.NFs.Lookup("svc-fw"); ok {
		t.Fatal("svc-fw duplicated into shard B")
	}
	if _, ok := shardB.NFs.Lookup("svc-nat"); !ok {
		t.Fatal("svc-nat missing from shard B")
	}
	// Bookkeeping only on the home shard.
	if shardA.NumHops() == 0 || shardB.NumHops() != 0 {
		t.Fatalf("bookkeeping hops: A=%d B=%d", shardA.NumHops(), shardB.NumHops())
	}
	// The scoped projections program exactly the full apply's rules.
	scopedRules := 0
	for _, g := range []*nffg.NFFG{shardA, shardB} {
		for _, id := range g.InfraIDs() {
			scopedRules += len(slices.Collect(g.Infras.Get(id).Flowrules()))
		}
	}
	if scopedRules != fullRules {
		t.Fatalf("scoped rules %d != full apply rules %d", scopedRules, fullRules)
	}

	// Release per shard restores each byte-for-byte.
	if err := Release(shardA, mp); err != nil {
		t.Fatal(err)
	}
	if err := Release(shardB, mp); err != nil {
		t.Fatal(err)
	}
	shardA.Version, shardB.Version = verA, verB
	if !bytes.Equal(origA, encodeCanonical(t, shardA)) {
		t.Fatal("shard A not restored")
	}
	if !bytes.Equal(origB, encodeCanonical(t, shardB)) {
		t.Fatal("shard B not restored")
	}
}
