package nffg

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func richGraph(t testing.TB) *NFFG {
	t.Helper()
	g, err := NewBuilder("demo").
		BiSBiS("bb1", "mininet", 4, Resources{CPU: 8, Mem: 4096, Storage: 50}, "firewall").
		BiSBiS("bb2", "openstack", 4, Resources{CPU: 32, Mem: 65536, Storage: 1000}, "dpi", "nat").
		SAP("sap1").SAP("sap2").
		Link("l1", "sap1", "1", "bb1", "1", 100, 1).
		Link("l2", "bb1", "2", "bb2", "1", 1000, 2).
		Link("l3", "bb2", "2", "sap2", "1", 100, 1).
		NF("fw", "firewall", 2, Resources{CPU: 2, Mem: 512, Storage: 1}).
		Chain("c1", 10, 20, "sap1", "fw", "sap2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	mapNF(g, "fw", "bb1")
	if err := g.AddFlowrule("bb1", &Flowrule{
		ID:        "r1",
		Match:     Match{InPort: InfraPort("1"), MatchUntagged: true},
		Action:    Action{Output: NFPort("fw", "1"), PushTag: "c1"},
		Bandwidth: 10, HopID: "c1-1",
	}); err != nil {
		t.Fatal(err)
	}
	_ = g.AddReq(&Requirement{ID: "req1", SrcNode: "sap1", DstNode: "sap2", HopIDs: []string{"c1-1", "c1-2"}, Bandwidth: 10, Delay: 40})
	g.Version = 7
	return g
}

func graphsEquivalent(t *testing.T, a, b *NFFG) {
	t.Helper()
	if a.ID != b.ID || a.Version != b.Version {
		t.Fatalf("header mismatch: %s v%d vs %s v%d", a.ID, a.Version, b.ID, b.Version)
	}
	if a.Infras.Len() != b.Infras.Len() || a.NFs.Len() != b.NFs.Len() || a.SAPs.Len() != b.SAPs.Len() {
		t.Fatalf("node counts differ: %s vs %s", a.Render(), b.Render())
	}
	if a.links.len() != b.links.len() || a.hops.len() != b.hops.len() || a.reqs.len() != b.reqs.len() {
		t.Fatalf("edge counts differ: %s vs %s", a.Render(), b.Render())
	}
	d, err := Diff(a, b)
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if !d.Empty() {
		t.Fatalf("decoded graph differs: %+v", d)
	}
	if a.Render() != b.Render() {
		t.Fatalf("renders differ:\n%s\n---\n%s", a.Render(), b.Render())
	}
}

func TestJSONRoundtrip(t *testing.T) {
	g := richGraph(t)
	var buf bytes.Buffer
	if err := g.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEquivalent(t, g, back)
}

func TestJSONDeterministic(t *testing.T) {
	g := richGraph(t)
	a, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(g.Copy())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("JSON encoding must be deterministic across copies")
	}
}

func TestXMLStringContainsModel(t *testing.T) {
	g := richGraph(t)
	s, err := g.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<infra>", "<nf>", "<sap>", "<flowtable>", "firewall"} {
		if !strings.Contains(s, want) {
			t.Fatalf("XML missing %q:\n%s", want, s)
		}
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	if _, err := DecodeJSON(strings.NewReader("{broken")); err == nil {
		t.Fatal("broken JSON must fail")
	}
	// Duplicate IDs inside the payload must be rejected by fromWire.
	payload := `{"id":"x","version":1,"infras":[{"id":"a","type":"bisbis","ports":[],"resources":{"cpu":1,"mem":1,"storage":1}},{"id":"a","type":"bisbis","ports":[],"resources":{"cpu":1,"mem":1,"storage":1}}]}`
	if _, err := DecodeJSON(strings.NewReader(payload)); err == nil {
		t.Fatal("duplicate infra IDs must fail decode")
	}
	// So must data after the JSON value, and a null node or edge.
	for _, body := range []string{
		`{"id":"x"} {"id":"y"}`, `{"id":"x"}]`,
		`{"id":"x","infras":[null]}`, `{"id":"x","nfs":[null]}`, `{"id":"x","saps":[null]}`,
		`{"id":"x","links":[null]}`, `{"id":"x","sg_hops":[null]}`, `{"id":"x","requirements":[null]}`,
	} {
		if _, err := DecodeJSON(strings.NewReader(body)); err == nil {
			t.Errorf("%s: must fail decode", body)
		}
	}
}

func TestEmptyGraphRoundtrip(t *testing.T) {
	g := New("empty")
	var buf bytes.Buffer
	if err := g.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != "empty" || back.Infras.Len() != 0 {
		t.Fatalf("empty graph mangled: %s", back.Render())
	}
}
