package nffg

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"testing"
)

// goldenGraph is a resident-laden graph as commits leave it: three BiS-BiS
// with ten rules each, 16 SAPs and 15 one-NF services, sealed and forked
// twice, with rules of four hops removed and one rule added across the two
// forks, so that every flowtable is a generation on a shared base with
// tombstones and appended rules.
func goldenGraph(t testing.TB) *NFFG {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	g := New("golden")
	for i := 0; i < 3; i++ {
		ports := []*Port{{ID: "in"}, {ID: "out"}}
		for k := 0; k < 6; k++ {
			ports = append(ports, &Port{ID: fmt.Sprintf("s%d", k)})
		}
		must(g.AddInfra(&Infra{ID: ID(fmt.Sprintf("n%d", i)), Domain: "d", Type: "bisbis", Ports: ports,
			Capacity: Resources{CPU: 64, Mem: 1 << 16, Storage: 512}, Supported: []string{"fw", "nat"}}))
	}
	must(g.AddLink(&Link{ID: "n0-n1", SrcNode: "n0", SrcPort: "out", DstNode: "n1", DstPort: "in", Bandwidth: 1000, Delay: 1}))
	must(g.AddLink(&Link{ID: "n1-n2", SrcNode: "n1", SrcPort: "out", DstNode: "n2", DstPort: "in", Bandwidth: 1000, Delay: 1}))
	for k := 0; k < 16; k++ {
		sap, infra := ID(fmt.Sprintf("sap%02d", k)), ID(fmt.Sprintf("n%d", k%3))
		must(g.AddSAP(&SAP{ID: sap}))
		must(g.AddLink(&Link{ID: string(sap) + "-up", SrcNode: sap, SrcPort: "1", DstNode: infra,
			DstPort: fmt.Sprintf("s%d", k/3), Bandwidth: 100, Delay: 0.5}))
	}
	for s := 0; s < 15; s++ {
		nf, host, next := ID(fmt.Sprintf("svc%02d-nf", s)), ID(fmt.Sprintf("n%d", s%3)), ID(fmt.Sprintf("n%d", (s+1)%3))
		a, z := ID(fmt.Sprintf("sap%02d", s)), ID(fmt.Sprintf("sap%02d", s+1))
		must(g.AddNF(&NF{ID: nf, FunctionalType: "fw", Ports: []*Port{{ID: "1"}, {ID: "2"}}, Host: host, Status: StatusMapped,
			Demand: Resources{CPU: 1, Mem: 128, Storage: 1}}))
		must(g.AddHop(&SGHop{ID: fmt.Sprintf("svc%02d-h0", s), SrcNode: a, SrcPort: "1", DstNode: nf, DstPort: "1", Bandwidth: 5}))
		must(g.AddHop(&SGHop{ID: fmt.Sprintf("svc%02d-h1", s), SrcNode: nf, SrcPort: "2", DstNode: z, DstPort: "1", Bandwidth: 5, FlowDst: z}))
		must(g.AddFlowrule(host, &Flowrule{ID: fmt.Sprintf("svc%02d-r0", s), Priority: 10,
			Match:  Match{InPort: InfraPort("in"), Tag: fmt.Sprintf("svc%02d", s)},
			Action: Action{Output: NFPort(nf, "1"), PopTag: true}, Bandwidth: 5, HopID: fmt.Sprintf("svc%02d-h0", s)}))
		must(g.AddFlowrule(next, &Flowrule{ID: fmt.Sprintf("svc%02d-r1", s),
			Match:  Match{InPort: InfraPort("in"), MatchUntagged: true, DstSAP: z},
			Action: Action{Output: InfraPort("out"), PushTag: fmt.Sprintf("svc%02d", s)}, Delay: 0.25, HopID: fmt.Sprintf("svc%02d-h1", s)}))
	}
	g = g.Seal().Fork()
	for _, hop := range []string{"svc03-h0", "svc07-h1", "svc10-h0"} {
		if g.RemoveFlowrulesByHop(hop) == 0 {
			t.Fatalf("no rule of hop %s", hop)
		}
	}
	must(g.AddFlowrule("n1", &Flowrule{ID: "extra", Match: Match{InPort: InfraPort("s2"), Tag: "x"},
		Action: Action{Output: InfraPort("out")}, HopID: "svc99-h0"}))
	g = g.Seal().Fork()
	if g.RemoveFlowrulesByHop("svc12-h1") == 0 {
		t.Fatal("no rule of hop svc12-h1")
	}
	g.Version = 3
	return g
}

// decodeXML reads the virtualizer XML rendering back into a graph.
func decodeXML(b []byte) (*NFFG, error) {
	var w wire
	if err := xml.Unmarshal(b, &w); err != nil {
		return nil, err
	}
	return fromWire(&w)
}

// TestWireGolden pins the wire bytes of goldenGraph, flowtables included,
// rule order and all: testdata/golden.json and testdata/golden.xml hold what
// the encoders wrote when Infra kept its flowtable in an exported slice. The
// graph must encode to exactly those bytes, and so must what decodes from
// them.
func TestWireGolden(t *testing.T) {
	g := goldenGraph(t)
	for id, i := range g.Infras.All() {
		if i.rules.b == nil || len(i.rules.b.over) == 0 {
			t.Fatalf("infra %s's flowtable has no overlay: the graph does not exercise one", id)
		}
	}
	for _, c := range []struct {
		file   string
		encode func(*NFFG, io.Writer) error
		decode func([]byte) (*NFFG, error)
	}{
		{"testdata/golden.json", (*NFFG).EncodeJSON, DecodeJSONBytes},
		{"testdata/golden.xml", (*NFFG).EncodeXML, decodeXML},
	} {
		want, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := c.encode(g, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: the graph encodes to other bytes:\n%s", c.file, got.Bytes())
		}
		back, err := c.decode(want)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.file, err)
		}
		got.Reset()
		if err := c.encode(back, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: the decoded graph encodes to other bytes:\n%s", c.file, got.Bytes())
		}
	}
}
