package nffg

import (
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// wire is the serialized shape shared by the JSON codec and the XML
// rendering: maps become sorted lists so output is deterministic and
// diff-friendly — the property the paper gets from its Yang model.
type wire struct {
	XMLName xml.Name       `json:"-" xml:"virtualizer"`
	ID      string         `json:"id" xml:"id,attr"`
	Name    string         `json:"name,omitempty" xml:"name,attr,omitempty"`
	Version int            `json:"version" xml:"version,attr"`
	Infras  []*Infra       `json:"infras,omitempty" xml:"nodes>infra,omitempty"`
	NFs     []*NF          `json:"nfs,omitempty" xml:"nodes>nf,omitempty"`
	SAPs    []*SAP         `json:"saps,omitempty" xml:"nodes>sap,omitempty"`
	Links   []*Link        `json:"links,omitempty" xml:"links>link,omitempty"`
	Hops    []*SGHop       `json:"sg_hops,omitempty" xml:"sg_hops>hop,omitempty"`
	Reqs    []*Requirement `json:"requirements,omitempty" xml:"requirements>requirement,omitempty"`
}

func (g *NFFG) toWire() *wire {
	w := &wire{ID: g.ID, Name: g.Name, Version: g.Version, Links: g.Links, Hops: g.Hops, Reqs: g.Reqs}
	for _, id := range g.InfraIDs() {
		w.Infras = append(w.Infras, g.Infras.Get(id))
	}
	for _, id := range g.NFIDs() {
		w.NFs = append(w.NFs, g.NFs.Get(id))
	}
	for _, id := range g.SAPIDs() {
		w.SAPs = append(w.SAPs, g.SAPs.Get(id))
	}
	return w
}

func fromWire(w *wire) (*NFFG, error) {
	// Every graph method takes its nodes and edges to be non-nil.
	if slices.Contains(w.Infras, nil) || slices.Contains(w.NFs, nil) || slices.Contains(w.SAPs, nil) ||
		slices.Contains(w.Links, nil) || slices.Contains(w.Hops, nil) || slices.Contains(w.Reqs, nil) {
		return nil, errors.New("nffg: null node or edge entry")
	}
	g := New(w.ID)
	g.Name = w.Name
	g.Version = w.Version
	for _, i := range w.Infras {
		if err := g.AddInfra(i); err != nil {
			return nil, err
		}
	}
	for _, n := range w.NFs {
		if err := g.AddNF(n); err != nil {
			return nil, err
		}
	}
	for _, s := range w.SAPs {
		if err := g.AddSAP(s); err != nil {
			return nil, err
		}
	}
	g.Links = w.Links
	g.Hops = w.Hops
	g.Reqs = w.Reqs
	return g, nil
}

// MarshalJSON encodes the graph deterministically.
func (g *NFFG) MarshalJSON() ([]byte, error) { return json.Marshal(g.toWire()) }

// UnmarshalJSON decodes a graph produced by MarshalJSON, where a journal
// record or a watch event embeds one.
func (g *NFFG) UnmarshalJSON(b []byte) error {
	ng, err := DecodeJSONBytes(b)
	if err != nil {
		return err
	}
	*g = *ng
	return nil
}

// EncodeJSON writes the graph as compact JSON followed by a newline: the wire
// form of every Unify hop. It encodes the wire shape once, straight to w,
// with no MarshalJSON round trip and no indentation pass; a tool that prints
// a graph for people indents it with json.Indent. DecodeJSON reads the
// compact and the indented form alike.
func (g *NFFG) EncodeJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(g.toWire())
}

// DecodeJSONBytes is the one graph decoder: a single json.Unmarshal of b
// straight into the wire shape, then fromWire. Non-whitespace after the JSON
// value is an error. The graph keeps no reference into b (encoding/json
// copies every string out of its input), so the caller may reuse b.
func DecodeJSONBytes(b []byte) (*NFFG, error) {
	var w wire
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("nffg: decode json: %w", err)
	}
	return fromWire(&w)
}

// DecodeJSON reads r to its end and decodes the graph it holds with
// DecodeJSONBytes.
func DecodeJSON(r io.Reader) (*NFFG, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("nffg: decode json: %w", err)
	}
	return DecodeJSONBytes(b)
}

// EncodeXML writes the graph in the virtualizer XML rendering (the shape a
// Yang-modelled NETCONF datastore would expose).
func (g *NFFG) EncodeXML(w io.Writer) error {
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(g.toWire()); err != nil {
		return err
	}
	return enc.Flush()
}

// XMLString returns the XML rendering, for logging and NETCONF payloads.
func (g *NFFG) XMLString() (string, error) {
	var sb strings.Builder
	if err := g.EncodeXML(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// Render draws an ASCII description of the graph: every BiS-BiS with its
// resources, mapped NFs and flowtable, then links and hops. Deterministic
// ordering makes it diffable in tests and demo transcripts.
func (g *NFFG) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NFFG %s (version %d)\n", g.ID, g.Version)
	for _, id := range g.InfraIDs() {
		i := g.Infras.Get(id)
		avail, _ := g.AvailableResources(id)
		fmt.Fprintf(&b, "  [BiSBiS %s] domain=%s type=%s cpu=%.0f/%.0f mem=%.0f/%.0f\n",
			id, i.Domain, i.Type, avail.CPU, i.Capacity.CPU, avail.Mem, i.Capacity.Mem)
		if len(i.Supported) > 0 {
			fmt.Fprintf(&b, "    supports: %s\n", strings.Join(sortedStrings(i.Supported), ","))
		}
		for _, nf := range g.NFsOn(id) {
			fmt.Fprintf(&b, "    NF %s (%s) status=%s\n", nf.ID, nf.FunctionalType, nf.Status)
		}
		for _, f := range i.Flowrules {
			fmt.Fprintf(&b, "    rule %s: %s\n", f.ID, f.String())
		}
	}
	for _, id := range g.SAPIDs() {
		fmt.Fprintf(&b, "  [SAP %s]\n", id)
	}
	for _, l := range g.Links {
		fmt.Fprintf(&b, "  link %s: %s.%s -> %s.%s bw=%.0f delay=%.1f\n",
			l.ID, l.SrcNode, l.SrcPort, l.DstNode, l.DstPort, l.Bandwidth, l.Delay)
	}
	for _, h := range g.Hops {
		fmt.Fprintf(&b, "  hop %s: %s.%s -> %s.%s bw=%.0f delay<=%.1f\n",
			h.ID, h.SrcNode, h.SrcPort, h.DstNode, h.DstPort, h.Bandwidth, h.Delay)
	}
	return b.String()
}

func sortedStrings(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}
