package embed

import (
	"errors"
	"fmt"

	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/topo"
)

// ErrConflict is returned when a generated flowrule would collide with an
// existing one (same node, same match); typically two chains entering the
// same SAP-facing port untagged.
var ErrConflict = errors.New("embed: flowrule conflict")

// Apply realizes a mapping on a fork of the substrate (see nffg.Fork): NFs
// are placed with StatusMapped, every SG hop becomes a set of flowrules along
// its path using tag-based steering (push the hop tag at the ingress BiS-BiS,
// match it at transit nodes, pop it on delivery), and link capacities are
// decremented by the reserved bandwidth. This is the paper's "SFC programming
// = assigning NFs to BiS-BiS nodes + editing flowrules within BiS-BiS nodes".
// The original substrate is never mutated: a failed Apply leaves it
// untouched.
func Apply(sub *nffg.NFFG, mp *Mapping) (*nffg.NFFG, error) {
	out := sub.Fork()
	if err := ApplyTo(out, mp); err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyTo realizes a mapping on g IN PLACE — the copy-free variant behind
// Apply, for callers that admit many mappings against one working substrate
// (batched admission applies a whole batch to a single snapshot copy instead
// of copying the graph per request). On error g may hold a partial
// application: callers needing all-or-nothing semantics use Apply or rebuild
// from their snapshot. A cleanly applied mapping is exactly undone by
// Release.
func ApplyTo(out *nffg.NFFG, mp *Mapping) error {
	p, err := Place(out, mp)
	if err != nil {
		return err
	}
	return p.ApplyTo(out)
}

// ApplyScoped realizes onto dst only the slice of a mapping that falls inside
// dst's node set: NFs whose host is a dst infra, flowrules on dst infras, and
// bandwidth on links dst owns. ref must be a graph holding the full topology
// the mapping was planned against (the merged shard-set working graph) — it
// is used read-only to resolve hop segments and ports that cross out of dst.
//
// This is the commit half of the sharded DoV: a mapping planned on a merged
// multi-shard snapshot is projected per shard, so each shard's next-generation
// fork receives exactly its own slice of the reservation. Exactly one shard
// — the mapping's home shard — must be called with bookkeeping set: it
// carries the SG-hop and requirement records of the request (appended without
// endpoint validation, since a cross-shard hop's peer endpoint legitimately
// lives in a sibling shard's graph). A caller projecting one mapping onto
// several shards derives its flowrules once with Place and projects the
// Placement instead.
//
// A cleanly applied slice is exactly undone by Release on the same graph
// (Release skips NFs, links and hops a shard does not hold).
func ApplyScoped(dst, ref *nffg.NFFG, mp *Mapping, bookkeeping bool) error {
	p, err := Place(ref, mp)
	if err != nil {
		return err
	}
	return p.ApplyScoped(dst, ref, bookkeeping)
}

// Placement is a mapping with the flowrules that realize its hops, derived
// once against the graph it was planned on. Applying it installs those rules;
// projecting it onto several shard graphs installs each shard its slice of
// the same rules instead of deriving them again per shard. The rules are
// shared by every graph the placement is applied to, and never written.
type Placement struct {
	Mapping *Mapping
	rules   []placedRule
}

// Place derives the flowrules of every hop of mp, resolving hop segments and
// ports against ref, which must hold the full topology mp was planned on. It
// does not mutate ref.
func Place(ref *nffg.NFFG, mp *Mapping) (*Placement, error) {
	p := &Placement{Mapping: mp}
	for h := range mp.Request.Hops() {
		path, ok := mp.Paths[h.ID]
		if !ok {
			return nil, fmt.Errorf("embed: hop %s missing from mapping", h.ID)
		}
		rules, err := hopRules(ref, mp, h, path)
		if err != nil {
			return nil, err
		}
		p.rules = append(p.rules, rules...)
	}
	return p, nil
}

// ApplyTo realizes the placement on g in place, as ApplyTo does its mapping;
// g must describe the topology the placement was derived on.
func (p *Placement) ApplyTo(g *nffg.NFFG) error {
	return p.ApplyScoped(g, g, true)
}

// ApplyScoped realizes onto dst only its slice of the placement, as
// ApplyScoped does for a mapping; ref is the graph the placement was
// derived on.
func (p *Placement) ApplyScoped(dst, ref *nffg.NFFG, bookkeeping bool) error {
	mp := p.Mapping
	full := dst == ref
	// 1. Place NFs (scoped: only those hosted on dst's infras).
	for _, id := range mp.Request.NFIDs() {
		nf := mp.Request.NFs.Get(id)
		host, ok := mp.NFHost[id]
		if !ok {
			return fmt.Errorf("embed: NF %s has no host in mapping", id)
		}
		if !full {
			if _, mine := dst.Infras.Lookup(host); !mine {
				continue
			}
		}
		c := &nffg.NF{
			ID: id, Name: nf.Name, FunctionalType: nf.FunctionalType,
			DeployType: nf.DeployType, Demand: nf.Demand,
			Host: host, Status: nffg.StatusMapped,
		}
		for _, port := range nf.Ports {
			cp := *port
			c.Ports = append(c.Ports, &cp)
		}
		if err := dst.AddNF(c); err != nil {
			return err
		}
	}
	// 2. Copy SG hops and requirements into the configured view for
	// bookkeeping (teardown, monitoring). Under sharding only the home shard
	// records them; hop endpoints may live in sibling shards, so the scoped
	// path records them instead of re-validating endpoints.
	if bookkeeping {
		for h := range mp.Request.Hops() {
			ch := *h
			if full {
				if err := dst.AddHop(&ch); err != nil {
					return err
				}
			} else {
				dst.RecordHop(&ch)
			}
		}
		for r := range mp.Request.Reqs() {
			cr := *r
			cr.HopIDs = append([]string(nil), r.HopIDs...)
			dst.RecordReq(&cr)
		}
	}
	// 3. Install the placed flowrules that fall onto dst's own infras.
	for _, r := range p.rules {
		if !full {
			if _, mine := dst.Infras.Lookup(r.node); !mine {
				continue
			}
		}
		if err := installRule(dst, r.node, r.rule); err != nil {
			return err
		}
	}
	// 4. Reserve link bandwidth. Shard graphs partition the links (every link
	// lives in exactly one shard), so a link dst does not hold belongs to a
	// sibling shard — it only has to exist in the reference graph.
	for h := range mp.Request.Hops() {
		for _, lid := range mp.Paths[h.ID].Links {
			l := dst.MutLink(string(lid))
			if l == nil {
				if !full && ref.LinkByID(string(lid)) != nil {
					continue // a sibling shard owns this segment
				}
				return fmt.Errorf("embed: path link %s not in substrate", lid)
			}
			if l.Bandwidth < h.Bandwidth {
				return fmt.Errorf("embed: link %s capacity exhausted applying hop %s", lid, h.ID)
			}
			l.Bandwidth -= h.Bandwidth
		}
	}
	dst.NextVersion()
	return nil
}

// Release undoes an applied mapping on g in place: removes the hops' rules,
// restores link bandwidth, unmaps the NFs and drops the hops. It tolerates
// pieces g does not hold (NFs, links and hop records owned by sibling
// shards), so releasing a multi-shard mapping shard-by-shard backs out
// exactly what ApplyScoped put into each shard.
func Release(g *nffg.NFFG, mp *Mapping) error {
	for h := range mp.Request.Hops() {
		g.RemoveFlowrulesByHop(h.ID)
		p := mp.Paths[h.ID]
		for _, lid := range p.Links {
			if l := g.MutLink(string(lid)); l != nil {
				l.Bandwidth += h.Bandwidth
			}
		}
		g.RemoveHop(h.ID)
	}
	for _, id := range mp.Request.NFIDs() {
		if _, ok := g.NFs.Lookup(id); ok {
			if err := g.RemoveNF(id); err != nil {
				return err
			}
		}
	}
	// Drop requirements belonging to the request.
	for r := range mp.Request.Reqs() {
		g.RemoveReq(r.ID)
	}
	g.NextVersion()
	return nil
}

// chainDst resolves the terminal SAP of the chain a hop belongs to: the hop's
// FlowDst when the orchestrator above pre-resolved it, otherwise a walk along
// successor hops until a SAP endpoint.
func chainDst(req *nffg.NFFG, h *nffg.SGHop) nffg.ID {
	if h.FlowDst != "" {
		return h.FlowDst
	}
	cur := h
	for steps := 0; steps <= req.NumHops(); steps++ {
		if _, ok := req.SAPs.Lookup(cur.DstNode); ok {
			return cur.DstNode
		}
		var next *nffg.SGHop
		for cand := range req.Hops() {
			if cand.SrcNode == cur.DstNode {
				next = cand
				break
			}
		}
		if next == nil {
			return ""
		}
		cur = next
	}
	return ""
}

// placedRule is one flowrule bound for a specific infra node.
type placedRule struct {
	node nffg.ID
	rule *nffg.Flowrule
}

// hopRules computes the flowrules realizing one hop along its path, resolving
// segment ports against g (which must hold the full path topology). It does
// not mutate g.
func hopRules(g *nffg.NFFG, mp *Mapping, h *nffg.SGHop, p topo.Path) ([]placedRule, error) {
	tag := h.ID
	_, srcIsNF := mp.Request.NFs.Lookup(h.SrcNode)
	_, dstIsNF := mp.Request.NFs.Lookup(h.DstNode)
	_, srcIsSAP := mp.Request.SAPs.Lookup(h.SrcNode)

	// Infra nodes along the path (SAP endpoints are not programmable).
	type seg struct {
		node    nffg.ID
		inPort  nffg.PortRef // where hop traffic enters this node
		outPort nffg.PortRef // where it leaves
	}
	var segs []seg

	if len(p.Links) == 0 {
		// Co-located endpoints on one BiS-BiS.
		host := nffg.ID(p.Nodes[0])
		in, err := endpointPort(g, mp, h.SrcNode, h.SrcPort, srcIsNF)
		if err != nil {
			return nil, fmt.Errorf("hop %s src: %w", h.ID, err)
		}
		out, err := endpointPort(g, mp, h.DstNode, h.DstPort, dstIsNF)
		if err != nil {
			return nil, fmt.Errorf("hop %s dst: %w", h.ID, err)
		}
		return []placedRule{{node: host, rule: &nffg.Flowrule{
			ID:        fmt.Sprintf("%s@%s", h.ID, host),
			Match:     nffg.Match{InPort: in, MatchUntagged: true},
			Action:    nffg.Action{Output: out},
			Bandwidth: h.Bandwidth,
			HopID:     h.ID,
		}}}, nil
	}

	for i, node := range p.Nodes {
		if _, isInfra := g.Infras.Lookup(nffg.ID(node)); !isInfra {
			continue // SAP endpoint
		}
		s := seg{node: nffg.ID(node)}
		if i == 0 {
			// First node is an infra: the hop starts at an NF on this node.
			in, err := endpointPort(g, mp, h.SrcNode, h.SrcPort, srcIsNF)
			if err != nil {
				return nil, fmt.Errorf("hop %s src: %w", h.ID, err)
			}
			s.inPort = in
		} else {
			lid := string(p.Links[i-1])
			port, err := linkPortOn(g, lid, nffg.ID(node), false)
			if err != nil {
				return nil, fmt.Errorf("hop %s: %w", h.ID, err)
			}
			s.inPort = nffg.InfraPort(port)
		}
		if i == len(p.Nodes)-1 {
			out, err := endpointPort(g, mp, h.DstNode, h.DstPort, dstIsNF)
			if err != nil {
				return nil, fmt.Errorf("hop %s dst: %w", h.ID, err)
			}
			s.outPort = out
		} else {
			lid := string(p.Links[i])
			port, err := linkPortOn(g, lid, nffg.ID(node), true)
			if err != nil {
				return nil, fmt.Errorf("hop %s: %w", h.ID, err)
			}
			s.outPort = nffg.InfraPort(port)
		}
		segs = append(segs, s)
	}

	var rules []placedRule
	for i, s := range segs {
		first := i == 0
		last := i == len(segs)-1
		m := nffg.Match{InPort: s.inPort}
		a := nffg.Action{Output: s.outPort}
		if first {
			m.MatchUntagged = true // traffic from SAP or NF is untagged
			if srcIsSAP {
				// Chain-ingress classification: several chains may share an
				// ingress SAP when their destinations differ.
				m.DstSAP = chainDst(mp.Request, h)
			}
			if !last {
				a.PushTag = tag
			}
		} else {
			m.Tag = tag
			if last {
				a.PopTag = true
			}
		}
		rules = append(rules, placedRule{node: s.node, rule: &nffg.Flowrule{
			ID:        fmt.Sprintf("%s@%s", h.ID, s.node),
			Match:     m,
			Action:    a,
			Bandwidth: h.Bandwidth,
			HopID:     h.ID,
		}})
	}
	return rules, nil
}

// endpointPort resolves a hop endpoint into the PortRef visible inside the
// terminal BiS-BiS: NF ports stay NF ports; SAP endpoints resolve to the
// infra port that faces the SAP (via the static link).
func endpointPort(g *nffg.NFFG, mp *Mapping, node nffg.ID, port string, isNF bool) (nffg.PortRef, error) {
	if isNF {
		return nffg.NFPort(node, port), nil
	}
	if _, isSAP := g.SAPs.Lookup(node); isSAP {
		// Find the infra port the SAP's link lands on.
		for l := range g.Links() {
			if l.SrcNode == node {
				if _, ok := g.Infras.Lookup(l.DstNode); ok {
					return nffg.InfraPort(l.DstPort), nil
				}
			}
			if l.DstNode == node {
				if _, ok := g.Infras.Lookup(l.SrcNode); ok {
					return nffg.InfraPort(l.SrcPort), nil
				}
			}
		}
		return nffg.PortRef{}, fmt.Errorf("SAP %s has no infra uplink", node)
	}
	return nffg.InfraPort(port), nil
}

// linkPortOn returns the local port of a directed substrate link on the given
// node; src selects the source side.
func linkPortOn(g *nffg.NFFG, linkID string, node nffg.ID, src bool) (string, error) {
	l := g.LinkByID(linkID)
	if l == nil {
		return "", fmt.Errorf("link %s not found", linkID)
	}
	if src {
		if l.SrcNode != node {
			return "", fmt.Errorf("link %s does not start at %s", linkID, node)
		}
		return l.SrcPort, nil
	}
	if l.DstNode != node {
		return "", fmt.Errorf("link %s does not end at %s", linkID, node)
	}
	return l.DstPort, nil
}

func installRule(g *nffg.NFFG, node nffg.ID, f *nffg.Flowrule) error {
	err := g.AddFlowrule(node, f)
	if errors.Is(err, nffg.ErrMatchTaken) {
		return fmt.Errorf("%w: %w", ErrConflict, err)
	}
	return err
}
