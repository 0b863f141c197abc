package nffg

import "fmt"

// Builder assembles an NFFG with error accumulation, so topology definitions
// read declaratively. The first error sticks and is returned by Build.
type Builder struct {
	g   *NFFG
	err error
}

// NewBuilder starts a graph with the given ID.
func NewBuilder(id string) *Builder {
	return &Builder{g: New(id)}
}

// BiSBiS adds an infra node with numbered ports "1".."n".
func (b *Builder) BiSBiS(id ID, domain string, ports int, cap Resources, supported ...string) *Builder {
	if b.err != nil {
		return b
	}
	i := &Infra{ID: id, Domain: domain, Type: "bisbis", Capacity: cap, Supported: supported}
	for p := 1; p <= ports; p++ {
		i.Ports = append(i.Ports, &Port{ID: fmt.Sprint(p)})
	}
	b.err = b.g.AddInfra(i)
	return b
}

// Switch adds a forwarding-only infra node (no compute, no supported NFs).
func (b *Builder) Switch(id ID, domain string, ports int) *Builder {
	if b.err != nil {
		return b
	}
	i := &Infra{ID: id, Domain: domain, Type: "sdn-switch"}
	for p := 1; p <= ports; p++ {
		i.Ports = append(i.Ports, &Port{ID: fmt.Sprint(p)})
	}
	b.err = b.g.AddInfra(i)
	return b
}

// SAP adds a service access point with a single port "1".
func (b *Builder) SAP(id ID) *Builder {
	if b.err != nil {
		return b
	}
	b.err = b.g.AddSAP(&SAP{ID: id, Port: &Port{ID: "1"}})
	return b
}

// Link adds a duplex static link between two node ports.
func (b *Builder) Link(id string, a ID, aPort string, c ID, cPort string, bw, delay float64) *Builder {
	if b.err != nil {
		return b
	}
	b.err = b.g.AddDuplexLink(id, a, aPort, c, cPort, bw, delay)
	return b
}

// NF adds an unmapped NF request with numbered ports "1".."n".
func (b *Builder) NF(id ID, functional string, ports int, demand Resources) *Builder {
	if b.err != nil {
		return b
	}
	n := &NF{ID: id, FunctionalType: functional, Demand: demand}
	for p := 1; p <= ports; p++ {
		n.Ports = append(n.Ports, &Port{ID: fmt.Sprint(p)})
	}
	b.err = b.g.AddNF(n)
	return b
}

// Chain adds hops SAP->nf1->nf2->...->SAP using port "1" on SAPs and ports
// "1"/"2" (in/out) on NFs, with uniform bandwidth/delay demands per hop.
// Hop IDs are "<prefix>-<i>". It returns the hop IDs via the callback-free
// builder: read them from the graph afterwards, or use BuildChain.
func (b *Builder) Chain(prefix string, bw, delayPerHop float64, nodes ...ID) *Builder {
	if b.err != nil {
		return b
	}
	_, b.err = BuildChain(b.g, prefix, bw, delayPerHop, nodes...)
	return b
}

// Requirement adds an e2e requirement across the given hops.
func (b *Builder) Requirement(id string, src, dst ID, bw, maxDelay float64, hopIDs ...string) *Builder {
	if b.err != nil {
		return b
	}
	b.err = b.g.AddReq(&Requirement{ID: id, SrcNode: src, DstNode: dst, HopIDs: hopIDs, Bandwidth: bw, Delay: maxDelay})
	return b
}

// Build validates and returns the graph.
func (b *Builder) Build() (*NFFG, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return b.g, nil
}

// MustBuild panics on error; for tests and fixed demo topologies.
func (b *Builder) MustBuild() *NFFG {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Graph exposes the partially built graph (for advanced setup before Build).
func (b *Builder) Graph() *NFFG { return b.g }

// BuildChain wires a service chain through existing nodes: the first and last
// node use port "1" (SAP convention); intermediate NFs receive on port "1"
// and send on port "2" (or port "1" if they only have one port). It returns
// the created hop IDs.
func BuildChain(g *NFFG, prefix string, bw, delayPerHop float64, nodes ...ID) ([]string, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("nffg: chain needs at least 2 nodes")
	}
	outPort := func(id ID) string {
		if nf, ok := g.NFs.Lookup(id); ok && nf.Port("2") != nil {
			return "2"
		}
		return "1"
	}
	var hops []string
	for i := 0; i < len(nodes)-1; i++ {
		src, dst := nodes[i], nodes[i+1]
		sp := "1"
		if i > 0 { // leaving an NF: use its output port
			sp = outPort(src)
		}
		hid := fmt.Sprintf("%s-%d", prefix, i+1)
		h := &SGHop{ID: hid, SrcNode: src, SrcPort: sp, DstNode: dst, DstPort: "1", Bandwidth: bw, Delay: delayPerHop}
		if err := g.AddHop(h); err != nil {
			return nil, err
		}
		hops = append(hops, hid)
	}
	return hops, nil
}
