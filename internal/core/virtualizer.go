// Package core implements the paper's primary contribution: the joint cloud
// and network resource virtualization and programming API.
//
// A Virtualizer computes the virtualization view (interconnected BiS-BiS
// nodes) a layer presents to its manager; the ResourceOrchestrator is the
// manager-side component that maps configurations expressed on a view onto
// the underlying resources. Because the orchestrator itself exposes the same
// Layer interface northbound that it consumes southbound, UNIFY domains stack
// into a multi-level control hierarchy — the recursive Unify interface.
package core

import (
	"errors"
	"fmt"
	"sort"

	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// Virtualizer computes a client view from the domain-of-views (DoV) and can
// expand view nodes back to the concrete nodes they aggregate.
type Virtualizer interface {
	// Name identifies the virtualization policy.
	Name() string
	// View derives the client view from the global resource view.
	View(dov *nffg.NFFG) (*nffg.NFFG, error)
	// Scope expands a view node to the underlying DoV nodes it stands for.
	// nil means the node is unknown to this virtualizer.
	Scope(dov *nffg.NFFG, viewNode nffg.ID) []nffg.ID
}

// ErrEmptyView is returned when a view would contain no resources.
var ErrEmptyView = errors.New("core: empty view")

// expandPins translates a request's view-node pins into constraints on the
// snapshot the view was derived from. It returns a copy of req in which an
// NF pinned to a view node standing for one snapshot node is pinned to that
// node, and one standing for several is unpinned and scoped to them. A pin
// to a node the snapshot already holds (transparent views) stays as is.
func expandPins(virt Virtualizer, snap, req *nffg.NFFG) (*nffg.NFFG, map[nffg.ID][]nffg.ID, error) {
	work := req.Copy()
	scope := map[nffg.ID][]nffg.ID{}
	for _, id := range work.NFIDs() {
		nf := work.NFs.Get(id)
		if nf.Host == "" {
			continue
		}
		if _, direct := snap.Infras.Lookup(nf.Host); direct {
			continue
		}
		expanded := virt.Scope(snap, nf.Host)
		if len(expanded) == 0 {
			return nil, nil, fmt.Errorf("%w: NF %s pinned to unknown view node %s", unify.ErrRejected, id, nf.Host)
		}
		if len(expanded) == 1 {
			nf.Host = expanded[0]
		} else {
			nf.Host = ""
			scope[id] = expanded
		}
	}
	return work, scope, nil
}

// --- Transparent -------------------------------------------------------------

// Transparent exposes the DoV one-to-one (full topology view): the client
// sees and controls every BiS-BiS directly.
type Transparent struct{}

// Name implements Virtualizer.
func (Transparent) Name() string { return "transparent" }

// View implements Virtualizer.
func (Transparent) View(dov *nffg.NFFG) (*nffg.NFFG, error) {
	if dov.Infras.Len() == 0 {
		return nil, ErrEmptyView
	}
	v := dov.Copy()
	v.ID = dov.ID + "/view"
	return v, nil
}

// Scope implements Virtualizer: every view node is exactly one DoV node.
func (Transparent) Scope(dov *nffg.NFFG, viewNode nffg.ID) []nffg.ID {
	if _, ok := dov.Infras.Lookup(viewNode); ok {
		return []nffg.ID{viewNode}
	}
	return nil
}

// --- SingleBiSBiS ------------------------------------------------------------

// SingleBiSBiS collapses the whole DoV into one Big Switch with Big Software:
// aggregate compute capacity, the union of supported NF types, and one port
// per SAP. A client of this view delegates all placement and routing — the
// paper's "if a service orchestrator sees only a single BiS-BiS node then its
// orchestration task is trivial".
type SingleBiSBiS struct {
	// NodeID names the aggregate node (default "bisbis0").
	NodeID nffg.ID
}

// Name implements Virtualizer.
func (s SingleBiSBiS) Name() string { return "single-bisbis" }

func (s SingleBiSBiS) nodeID() nffg.ID {
	if s.NodeID != "" {
		return s.NodeID
	}
	return "bisbis0"
}

// View implements Virtualizer.
func (s SingleBiSBiS) View(dov *nffg.NFFG) (*nffg.NFFG, error) {
	if dov.Infras.Len() == 0 {
		return nil, ErrEmptyView
	}
	v := nffg.New(dov.ID + "/view")
	v.Version = dov.Version
	agg := &nffg.Infra{ID: s.nodeID(), Type: "bisbis"}
	supported := map[string]bool{}
	domains := map[string]bool{}
	for _, id := range dov.InfraIDs() {
		infra := dov.Infras.Get(id)
		avail, err := dov.AvailableResources(id)
		if err != nil {
			return nil, err
		}
		agg.Capacity = agg.Capacity.Add(avail)
		domains[infra.Domain] = true
		for _, t := range infra.Supported {
			supported[t] = true
		}
	}
	// The aggregate inherits the domain when it is uniform, so a parent
	// grouping by domain still distinguishes sibling layers.
	if len(domains) == 1 {
		for d := range domains {
			agg.Domain = d
		}
	} else {
		agg.Domain = string(s.nodeID())
	}
	for t := range supported {
		agg.Supported = append(agg.Supported, t)
	}
	sort.Strings(agg.Supported)
	if err := v.AddInfra(agg); err != nil {
		return nil, err
	}
	// One port + virtual uplink per SAP, inheriting the SAP's attachment
	// capacity (min along its DoV uplink) so the client's admission control
	// remains meaningful.
	for i, sapID := range dov.SAPIDs() {
		port := fmt.Sprint(i + 1)
		agg.Ports = append(agg.Ports, &nffg.Port{ID: port, SAP: sapID})
		if err := v.AddSAP(&nffg.SAP{ID: sapID, Port: &nffg.Port{ID: "1"}}); err != nil {
			return nil, err
		}
		bw, delay := sapUplink(dov, sapID)
		if err := v.AddDuplexLink(fmt.Sprintf("v-%s", sapID), sapID, "1", agg.ID, port, bw, delay); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// Scope implements Virtualizer: the aggregate expands to every DoV infra.
func (s SingleBiSBiS) Scope(dov *nffg.NFFG, viewNode nffg.ID) []nffg.ID {
	if viewNode != s.nodeID() {
		return nil
	}
	return dov.InfraIDs()
}

// --- DomainBiSBiS ------------------------------------------------------------

// DomainBiSBiS aggregates each infrastructure domain into one BiS-BiS node
// and preserves inter-domain connectivity: the view the multi-domain
// orchestrator in Fig. 1 works on.
type DomainBiSBiS struct{}

// Name implements Virtualizer.
func (DomainBiSBiS) Name() string { return "domain-bisbis" }

// viewNodeID derives the aggregate node ID for a domain.
func domainNodeID(domain string) nffg.ID { return nffg.ID("bisbis@" + domain) }

// View implements Virtualizer.
func (DomainBiSBiS) View(dov *nffg.NFFG) (*nffg.NFFG, error) {
	if dov.Infras.Len() == 0 {
		return nil, ErrEmptyView
	}
	v := nffg.New(dov.ID + "/view")
	v.Version = dov.Version
	domains := map[string]*nffg.Infra{}
	domainOf := map[nffg.ID]string{}
	supported := map[string]map[string]bool{}
	for _, id := range dov.InfraIDs() {
		infra := dov.Infras.Get(id)
		domainOf[id] = infra.Domain
		agg, ok := domains[infra.Domain]
		if !ok {
			agg = &nffg.Infra{ID: domainNodeID(infra.Domain), Type: "bisbis", Domain: infra.Domain}
			domains[infra.Domain] = agg
			supported[infra.Domain] = map[string]bool{}
		}
		avail, err := dov.AvailableResources(id)
		if err != nil {
			return nil, err
		}
		agg.Capacity = agg.Capacity.Add(avail)
		for _, t := range infra.Supported {
			supported[infra.Domain][t] = true
		}
	}
	var domainNames []string
	for d := range domains {
		domainNames = append(domainNames, d)
	}
	sort.Strings(domainNames)
	for _, d := range domainNames {
		for t := range supported[d] {
			domains[d].Supported = append(domains[d].Supported, t)
		}
		sort.Strings(domains[d].Supported)
		if err := v.AddInfra(domains[d]); err != nil {
			return nil, err
		}
	}
	// Ports and links: SAP uplinks and inter-domain links survive; intra-
	// domain links collapse away. Port numbers are allocated per aggregate.
	nextPort := map[nffg.ID]int{}
	port := func(n nffg.ID, sap nffg.ID) string {
		nextPort[n]++
		p := fmt.Sprint(nextPort[n])
		i := v.Infras.Get(n)
		i.Ports = append(i.Ports, &nffg.Port{ID: p, SAP: sap})
		return p
	}
	seenSAP := map[nffg.ID]bool{}
	for _, l := range dov.Links {
		srcDom, srcInfra := domainOf[l.SrcNode]
		dstDom, dstInfra := domainOf[l.DstNode]
		_, srcSAP := dov.SAPs.Lookup(l.SrcNode)
		switch {
		case srcInfra && dstInfra && srcDom != dstDom:
			// Inter-domain link: keep (directed; pair handled when its
			// reverse shows up, so add as one directed link).
			a, b := domainNodeID(srcDom), domainNodeID(dstDom)
			if err := v.AddLink(&nffg.Link{
				ID: l.ID, SrcNode: a, SrcPort: port(a, ""), DstNode: b, DstPort: port(b, ""),
				Bandwidth: l.Bandwidth, Delay: l.Delay, Backhaul: true,
			}); err != nil {
				return nil, err
			}
		case srcSAP && dstInfra:
			// One virtual uplink per (SAP, domain) pair: border SAPs keep an
			// uplink into every domain they stitch.
			key := nffg.ID(string(l.SrcNode) + "@" + dstDom)
			if seenSAP[key] {
				continue // duplex pair collapses
			}
			seenSAP[key] = true
			if _, ok := v.SAPs.Lookup(l.SrcNode); !ok {
				if err := v.AddSAP(&nffg.SAP{ID: l.SrcNode, Port: &nffg.Port{ID: "1"}}); err != nil {
					return nil, err
				}
			}
			n := domainNodeID(dstDom)
			if err := v.AddDuplexLink(fmt.Sprintf("v-%s@%s", l.SrcNode, dstDom), l.SrcNode, "1", n, port(n, l.SrcNode), l.Bandwidth, l.Delay); err != nil {
				return nil, err
			}
		}
	}
	return v, nil
}

// Scope implements Virtualizer: a domain aggregate expands to that domain's
// DoV nodes.
func (DomainBiSBiS) Scope(dov *nffg.NFFG, viewNode nffg.ID) []nffg.ID {
	var out []nffg.ID
	for _, id := range dov.InfraIDs() {
		if domainNodeID(dov.Infras.Get(id).Domain) == viewNode {
			out = append(out, id)
		}
	}
	return out
}

// sapUplink finds the bandwidth/delay of a SAP's attachment in the DoV.
func sapUplink(dov *nffg.NFFG, sap nffg.ID) (bw, delay float64) {
	for _, l := range dov.Links {
		if l.SrcNode == sap || l.DstNode == sap {
			return l.Bandwidth, l.Delay
		}
	}
	return 0, 0
}
