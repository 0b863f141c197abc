package nffg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomGraph generates a structurally valid NFFG with random nodes, links,
// placements, flowrules, hops and requirements.
func randomGraph(rng *rand.Rand) *NFFG {
	g := New(fmt.Sprintf("g%d", rng.Intn(1000)))
	g.Version = rng.Intn(100)
	nInfra := 1 + rng.Intn(5)
	types := []string{"firewall", "dpi", "nat"}
	for i := 0; i < nInfra; i++ {
		infra := &Infra{
			ID:     ID(fmt.Sprintf("bb%d", i)),
			Domain: fmt.Sprintf("dom%d", i%2),
			Type:   "bisbis",
			Capacity: Resources{
				CPU: float64(4 + rng.Intn(16)), Mem: float64(1024 * (1 + rng.Intn(8))), Storage: float64(10 + rng.Intn(90)),
			},
			Supported: types[:1+rng.Intn(len(types))],
		}
		for p := 1; p <= 2+rng.Intn(3); p++ {
			infra.Ports = append(infra.Ports, &Port{ID: fmt.Sprint(p)})
		}
		_ = g.AddInfra(infra)
	}
	nSAP := 1 + rng.Intn(3)
	for i := 0; i < nSAP; i++ {
		_ = g.AddSAP(&SAP{ID: ID(fmt.Sprintf("sap%d", i)), Port: &Port{ID: "1"}})
	}
	// Links between random infra ports.
	infras := g.InfraIDs()
	for i := 0; i < rng.Intn(6); i++ {
		a := infras[rng.Intn(len(infras))]
		b := infras[rng.Intn(len(infras))]
		_ = g.AddLink(&Link{
			ID:      fmt.Sprintf("l%d", i),
			SrcNode: a, SrcPort: "1",
			DstNode: b, DstPort: "2",
			Bandwidth: float64(rng.Intn(1000)), Delay: rng.Float64() * 10,
		})
	}
	// NFs placed on supporting hosts.
	for i := 0; i < rng.Intn(4); i++ {
		host := infras[rng.Intn(len(infras))]
		nf := &NF{
			ID:             ID(fmt.Sprintf("nf%d", i)),
			FunctionalType: g.Infras.Get(host).Supported[0],
			Ports:          []*Port{{ID: "1"}, {ID: "2"}},
			Demand:         Resources{CPU: 1, Mem: 64, Storage: 1},
			Host:           host,
			Status:         StatusMapped,
		}
		if err := g.AddNF(nf); err != nil {
			continue
		}
		// Maybe a flowrule into the NF.
		if rng.Intn(2) == 0 {
			_ = g.AddFlowrule(host, &Flowrule{
				ID:     fmt.Sprintf("r%d", i),
				Match:  Match{InPort: InfraPort("1"), Tag: fmt.Sprintf("t%d", i), DstSAP: ID(fmt.Sprintf("sap%d", rng.Intn(nSAP)))},
				Action: Action{Output: NFPort(nf.ID, "1"), PopTag: true},
				HopID:  fmt.Sprintf("h%d", i),
			})
		}
	}
	// Hops between SAPs and NFs.
	saps := g.SAPIDs()
	nfs := g.NFIDs()
	if len(nfs) > 0 {
		for i := 0; i < rng.Intn(3); i++ {
			h := &SGHop{
				ID:      fmt.Sprintf("hop%d", i),
				SrcNode: saps[rng.Intn(len(saps))], SrcPort: "1",
				DstNode: nfs[rng.Intn(len(nfs))], DstPort: "1",
				Bandwidth: float64(rng.Intn(100)),
				FlowDst:   saps[rng.Intn(len(saps))],
			}
			if err := g.AddHop(h); err == nil && rng.Intn(2) == 0 {
				_ = g.AddReq(&Requirement{
					ID: fmt.Sprintf("req%d", i), SrcNode: h.SrcNode, DstNode: h.DstNode,
					HopIDs: []string{h.ID}, Delay: rng.Float64() * 100,
				})
			}
		}
	}
	return g
}

// Property: the JSON roundtrip preserves arbitrary valid graphs exactly
// (diff-empty and render-identical).
func TestCodecRoundtripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		if err := g.Validate(); err != nil {
			return true // generator produced something Validate rejects; skip
		}
		// JSON.
		var jbuf bytes.Buffer
		if err := g.EncodeJSON(&jbuf); err != nil {
			return false
		}
		fromJSON, err := DecodeJSON(&jbuf)
		if err != nil {
			return false
		}
		if g.Render() != fromJSON.Render() {
			return false
		}
		dj, err := Diff(g, fromJSON)
		if err != nil || !dj.Empty() {
			return false
		}
		// Hop metadata (FlowDst) survives the codec.
		decoded := fromJSON.hops.flat()
		for i, h := range g.hops.flat() {
			if decoded[i].FlowDst != h.FlowDst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Copy is always deep — mutating every mutable field of the copy
// never leaks into the original (spot-checked via render stability).
func TestCopyIsolationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		before := g.Render()
		c := g.Copy()
		for _, i := range c.Infras.All() {
			i.Capacity.CPU = 0
			for _, p := range i.Ports {
				p.ID = "mutated"
			}
			for f := range i.Flowrules() {
				f.Action.PopTag = !f.Action.PopTag
			}
		}
		for _, nf := range c.NFs.All() {
			nf.Host = "mutated"
		}
		for l := range c.Links() {
			l.Bandwidth = -1
		}
		for h := range c.Hops() {
			h.FlowDst = "mutated"
		}
		for r := range c.Reqs() {
			if len(r.HopIDs) > 0 {
				r.HopIDs[0] = "mutated"
			}
		}
		return g.Render() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: EncodeJSON writes one compact line, and DecodeJSON reads that and
// the indented form of the same graph into equal graphs.
func TestCompactAndIndentedDecodeEqualProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		var compact, indented bytes.Buffer
		if err := g.EncodeJSON(&compact); err != nil {
			return false
		}
		if i := bytes.IndexByte(compact.Bytes(), '\n'); i != compact.Len()-1 {
			t.Logf("seed %d: newline at %d of %d bytes", seed, i, compact.Len())
			return false
		}
		if err := json.Indent(&indented, compact.Bytes(), "", "  "); err != nil {
			return false
		}
		fromCompact, err := DecodeJSON(bytes.NewReader(compact.Bytes()))
		if err != nil {
			return false
		}
		fromIndented, err := DecodeJSON(&indented)
		if err != nil {
			return false
		}
		a, errA := json.Marshal(fromCompact)
		b, errB := json.Marshal(fromIndented)
		return errA == nil && errB == nil && bytes.Equal(a, b) &&
			fromCompact.Render() == fromIndented.Render() && fromCompact.Render() == g.Render()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
