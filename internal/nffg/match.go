package nffg

import (
	"fmt"
	"strings"
)

// PortRef addresses a steerable port inside a BiS-BiS: either one of the
// node's own infrastructure ports (NF == "") or a port of an NF mapped onto
// the node. It is a comparable value usable as a map key, in the spirit of
// gopacket's Endpoint.
type PortRef struct {
	NF   ID     // empty for an infra port
	Port string // port ID on the infra node or on the NF
}

// InfraPort returns a PortRef naming an infrastructure port.
func InfraPort(port string) PortRef { return PortRef{Port: port} }

// NFPort returns a PortRef naming a port on a mapped NF.
func NFPort(nf ID, port string) PortRef { return PortRef{NF: nf, Port: port} }

// IsNF reports whether the reference addresses an NF port.
func (p PortRef) IsNF() bool { return p.NF != "" }

// String renders "3" for infra ports and "nf:fw1:1" for NF ports.
func (p PortRef) String() string {
	if p.NF == "" {
		return p.Port
	}
	return string(p.appendString(nil))
}

// appendString appends the String form to b.
func (p PortRef) appendString(b []byte) []byte {
	if p.NF != "" {
		b = append(append(append(b, "nf:"...), p.NF...), ':')
	}
	return append(b, p.Port...)
}

// ParsePortRef parses the String form back into a PortRef.
func ParsePortRef(s string) (PortRef, error) {
	if rest, ok := strings.CutPrefix(s, "nf:"); ok {
		nf, port, ok := strings.Cut(rest, ":")
		if !ok || nf == "" || port == "" {
			return PortRef{}, fmt.Errorf("nffg: malformed NF port ref %q", s)
		}
		return PortRef{NF: ID(nf), Port: port}, nil
	}
	if s == "" {
		return PortRef{}, fmt.Errorf("nffg: empty port ref")
	}
	return PortRef{Port: s}, nil
}

// Match selects traffic inside a BiS-BiS flowtable. The zero Tag matches
// untagged traffic only when MatchUntagged is set; an empty Match with
// MatchUntagged false matches any tag on the in-port.
type Match struct {
	InPort PortRef `json:"in_port" xml:"in_port"`
	// Tag matches the service tag pushed by an upstream BiS-BiS (the
	// VLAN-like label that isolates chains from each other).
	Tag string `json:"tag,omitempty" xml:"tag,omitempty"`
	// MatchUntagged restricts the rule to traffic with no service tag.
	MatchUntagged bool `json:"untagged,omitempty" xml:"untagged,omitempty"`
	// DstSAP classifies by the traffic's destination service access point.
	// It is set on chain-ingress rules so several chains may share an
	// ingress SAP as long as their destinations differ.
	DstSAP ID `json:"dst_sap,omitempty" xml:"dst_sap,omitempty"`
}

// Action forwards matched traffic. Tag operations execute before output.
type Action struct {
	Output PortRef `json:"output" xml:"output"`
	// PushTag sets the service tag (replacing any present).
	PushTag string `json:"push_tag,omitempty" xml:"push_tag,omitempty"`
	// PopTag removes the service tag before output.
	PopTag bool `json:"pop_tag,omitempty" xml:"pop_tag,omitempty"`
}

// Flowrule is one entry of a BiS-BiS flowtable. Bandwidth is the admitted
// rate for the rule (used in resource accounting), Delay the contribution
// assumed for the internal hop. HopID ties the rule back to the service-graph
// hop it realizes so rules can be garbage-collected when a chain is removed.
type Flowrule struct {
	ID        string  `json:"id" xml:"id"`
	Priority  int     `json:"priority,omitempty" xml:"priority,omitempty"`
	Match     Match   `json:"match" xml:"match"`
	Action    Action  `json:"action" xml:"action"`
	Bandwidth float64 `json:"bandwidth,omitempty" xml:"bandwidth,omitempty"`
	Delay     float64 `json:"delay,omitempty" xml:"delay,omitempty"`
	HopID     string  `json:"hop,omitempty" xml:"hop,omitempty"`
}

// String renders the rule in the ESCAPE-style compact text form, e.g.
// "in_port=1;TAG=chain1 -> output=nf:fw:1;UNTAG".
func (f *Flowrule) String() string {
	var m []string
	m = append(m, "in_port="+f.Match.InPort.String())
	if f.Match.Tag != "" {
		m = append(m, "TAG="+f.Match.Tag)
	} else if f.Match.MatchUntagged {
		m = append(m, "UNTAGGED")
	}
	if f.Match.DstSAP != "" {
		m = append(m, "DST="+string(f.Match.DstSAP))
	}
	var a []string
	if f.Action.PopTag {
		a = append(a, "UNTAG")
	}
	if f.Action.PushTag != "" {
		a = append(a, "TAG="+f.Action.PushTag)
	}
	a = append(a, "output="+f.Action.Output.String())
	return strings.Join(m, ";") + " -> " + strings.Join(a, ";")
}

// Key returns a comparable identity for rule dedup/diffing: the match side
// fully determines which traffic the rule owns within a table.
func (f *Flowrule) Key() Match { return f.Match }

// Equal reports whether two rules are semantically identical (ignoring ID).
func (f *Flowrule) Equal(o *Flowrule) bool {
	return f.Priority == o.Priority && f.Match == o.Match && f.Action == o.Action &&
		f.Bandwidth == o.Bandwidth && f.Delay == o.Delay && f.HopID == o.HopID
}

// ErrMatchTaken is the ErrDuplicateID AddFlowrule returns for a rule whose
// Match a rule of the table already owns.
var ErrMatchTaken = fmt.Errorf("%w", ErrDuplicateID)

// AddFlowrule appends a rule to an infra's flowtable, validating that the
// referenced ports exist (infra ports on the node, NF ports on NFs mapped to
// the node). The graph keeps f and never writes it: a caller that changes a
// rule adds a new one.
func (g *NFFG) AddFlowrule(infra ID, f *Flowrule) error {
	g.mustMutable("AddFlowrule")
	i, ok := g.Infras.Lookup(infra)
	if !ok {
		return fmt.Errorf("%w: infra %s", ErrNotFound, infra)
	}
	// A BiS-BiS flowtable is keyed by match: two rules owning the same
	// traffic would be ambiguous. That conflict wins over a duplicate ID.
	var sameID *Flowrule
	for existing := range i.Flowrules() {
		if existing.Match == f.Match {
			return fmt.Errorf("%w: flowrule %s duplicates match of %s on %s", ErrMatchTaken, f.ID, existing.ID, infra)
		}
		if sameID == nil && existing.ID == f.ID && f.ID != "" {
			sameID = existing
		}
	}
	if sameID != nil {
		return fmt.Errorf("%w: flowrule %s on %s", ErrDuplicateID, f.ID, infra)
	}
	if err := g.checkRulePort(i, f.Match.InPort); err != nil {
		return fmt.Errorf("flowrule %s match: %w", f.ID, err)
	}
	if err := g.checkRulePort(i, f.Action.Output); err != nil {
		return fmt.Errorf("flowrule %s action: %w", f.ID, err)
	}
	g.mutInfra(infra).rules.add(f)
	return nil
}

// RemoveFlowrulesByHop removes from every infra the rules installed for the
// given service hop, returning how many were dropped.
func (g *NFFG) RemoveFlowrulesByHop(hopID string) int {
	g.mustMutable("RemoveFlowrulesByHop")
	ofHop := func(f *Flowrule) bool { return f.HopID == hopID }
	n := 0
	for id, i := range g.Infras.All() {
		for f := range i.Flowrules() {
			if ofHop(f) {
				i = g.mutInfra(id)
				n += i.rules.len()
				i.rules.deleteFunc(ofHop)
				n -= i.rules.len()
				break
			}
		}
	}
	return n
}

func (g *NFFG) checkRulePort(i *Infra, p PortRef) error {
	if !p.IsNF() {
		if i.Port(p.Port) == nil {
			return fmt.Errorf("%w: infra port %s on %s", ErrNotFound, p.Port, i.ID)
		}
		return nil
	}
	nf, ok := g.NFs.Lookup(p.NF)
	if !ok {
		return fmt.Errorf("%w: NF %s", ErrNotFound, p.NF)
	}
	if nf.Host != i.ID {
		return fmt.Errorf("%w: NF %s is hosted on %q, not %s", ErrInvalid, p.NF, nf.Host, i.ID)
	}
	if nf.Port(p.Port) == nil {
		return fmt.Errorf("%w: port %s on NF %s", ErrNotFound, p.Port, p.NF)
	}
	return nil
}
