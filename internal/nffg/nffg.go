// Package nffg implements the joint cloud+network data model of the UNIFY
// architecture: the Network Function Forwarding Graph.
//
// The model is the Go rendering of the paper's Yang-defined virtualizer: a
// virtualization view is an arbitrary interconnection of BiS-BiS nodes (Big
// Switch with Big Software — a forwarding element fused with compute and
// storage), and SFC programming consists of (i) assigning NFs to BiS-BiS
// nodes and (ii) editing flowrules within BiS-BiS nodes. The same structure
// carries domain resource reports (capacities), virtualization views, and
// configuration requests (placements + flowrules), which is exactly what lets
// the Unify interface be recursive.
package nffg

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/unify-repro/escape/internal/topo"
)

// ID identifies nodes (BiS-BiS, NF, SAP) within one NFFG.
type ID string

// Resources describes compute/storage capacity or demand. For BiS-BiS nodes
// Bandwidth/Delay describe the internal switching fabric; for NFs they are
// unused.
type Resources struct {
	CPU     float64 `json:"cpu" xml:"cpu"`
	Mem     float64 `json:"mem" xml:"mem"`         // MB
	Storage float64 `json:"storage" xml:"storage"` // GB
	// Bandwidth is the internal forwarding capacity of a BiS-BiS (per rule
	// admission), Delay the traversal latency added by the node itself.
	Bandwidth float64 `json:"bandwidth,omitempty" xml:"bandwidth,omitempty"`
	Delay     float64 `json:"delay,omitempty" xml:"delay,omitempty"`
}

// Sub returns r minus d; ok is false if any component would go negative.
func (r Resources) Sub(d Resources) (Resources, bool) {
	out := Resources{
		CPU:       r.CPU - d.CPU,
		Mem:       r.Mem - d.Mem,
		Storage:   r.Storage - d.Storage,
		Bandwidth: r.Bandwidth,
		Delay:     r.Delay,
	}
	ok := out.CPU >= 0 && out.Mem >= 0 && out.Storage >= 0
	return out, ok
}

// Add returns r plus d (component-wise for CPU/Mem/Storage).
func (r Resources) Add(d Resources) Resources {
	return Resources{
		CPU:       r.CPU + d.CPU,
		Mem:       r.Mem + d.Mem,
		Storage:   r.Storage + d.Storage,
		Bandwidth: r.Bandwidth,
		Delay:     r.Delay,
	}
}

// Fits reports whether demand d fits within r.
func (r Resources) Fits(d Resources) bool {
	return d.CPU <= r.CPU && d.Mem <= r.Mem && d.Storage <= r.Storage
}

// Port is an attachment point on a node. Infra ports connect static links
// (inter-BiS-BiS, SAP uplinks); NF ports exist on NF nodes and become
// steerable once the NF is placed.
type Port struct {
	ID   string `json:"id" xml:"id"`
	Name string `json:"name,omitempty" xml:"name,omitempty"`
	// SAP marks the port as a service access point binding when set; it
	// carries the SAP's ID so inter-domain stitching can match ends.
	SAP ID `json:"sap,omitempty" xml:"sap,omitempty"`
}

// NodeStatus tracks the deployment lifecycle of NFs.
type NodeStatus string

// NF lifecycle states.
const (
	StatusPlanned  NodeStatus = "planned"  // requested, not yet mapped
	StatusMapped   NodeStatus = "mapped"   // placed on an infra node
	StatusDeployed NodeStatus = "deployed" // instantiated in the domain
	StatusFailed   NodeStatus = "failed"
	StatusStopped  NodeStatus = "stopped"
)

// NF is a network function instance in a graph: either a request (Host empty)
// or a placement (Host names a BiS-BiS node).
type NF struct {
	ID ID `json:"id" xml:"id"`
	// Name is a human label; FunctionalType selects the NF implementation
	// (e.g. "firewall", "dpi", "nat") against the domain's catalogue.
	Name           string `json:"name,omitempty" xml:"name,omitempty"`
	FunctionalType string `json:"functional_type" xml:"functional_type"`
	// DeployType optionally pins the execution environment ("click",
	// "docker", "vm"); empty lets the domain choose.
	DeployType string     `json:"deploy_type,omitempty" xml:"deploy_type,omitempty"`
	Ports      []*Port    `json:"ports" xml:"ports>port"`
	Demand     Resources  `json:"resources" xml:"resources"`
	Host       ID         `json:"host,omitempty" xml:"host,omitempty"` // BiS-BiS this NF is mapped to
	Status     NodeStatus `json:"status,omitempty" xml:"status,omitempty"`
}

// Port returns the NF port with the given ID, or nil.
func (n *NF) Port(id string) *Port {
	for _, p := range n.Ports {
		if p.ID == id {
			return p
		}
	}
	return nil
}

// Infra is a BiS-BiS node: joint forwarding + compute element.
type Infra struct {
	ID     ID     `json:"id" xml:"id"`
	Name   string `json:"name,omitempty" xml:"name,omitempty"`
	Domain string `json:"domain,omitempty" xml:"domain,omitempty"`
	// Type describes the realization ("bisbis" for the unified abstraction,
	// or domain-native kinds like "sdn-switch", "openstack", "un").
	Type  string  `json:"type" xml:"type"`
	Ports []*Port `json:"ports" xml:"ports>port"`
	// Capacity is the total compute/storage budget; mapped NFs consume it.
	Capacity Resources `json:"resources" xml:"resources"`
	// Supported lists the NF functional types this node can execute; empty
	// means forwarding-only (e.g. a legacy OpenFlow switch).
	Supported []string `json:"supported,omitempty" xml:"supported>type,omitempty"`
	// Flowrules is the BiS-BiS flowtable steering traffic among infra and NF
	// ports.
	Flowrules []*Flowrule `json:"flowrules,omitempty" xml:"flowtable>flowrule,omitempty"`
}

// Port returns the infra port with the given ID, or nil.
func (i *Infra) Port(id string) *Port {
	for _, p := range i.Ports {
		if p.ID == id {
			return p
		}
	}
	return nil
}

// SupportsNF reports whether the node may run the functional type.
func (i *Infra) SupportsNF(functional string) bool {
	for _, s := range i.Supported {
		if s == functional {
			return true
		}
	}
	return false
}

// SAP is a service access point: where user traffic enters/leaves the graph.
type SAP struct {
	ID   ID     `json:"id" xml:"id"`
	Name string `json:"name,omitempty" xml:"name,omitempty"`
	Port *Port  `json:"port" xml:"port"`
}

// Link is a static link between two infra (or SAP) ports, with capacity.
type Link struct {
	ID        string  `json:"id" xml:"id"`
	SrcNode   ID      `json:"src_node" xml:"src>node"`
	SrcPort   string  `json:"src_port" xml:"src>port"`
	DstNode   ID      `json:"dst_node" xml:"dst>node"`
	DstPort   string  `json:"dst_port" xml:"dst>port"`
	Bandwidth float64 `json:"bandwidth" xml:"bandwidth"` // capacity
	Delay     float64 `json:"delay" xml:"delay"`
	// Backhaul marks inter-domain links stitched by a parent orchestrator.
	Backhaul bool `json:"backhaul,omitempty" xml:"backhaul,omitempty"`
}

// SGHop is a service-graph next hop: directed edge between NF/SAP ports with
// the traffic requirement the hop must receive.
type SGHop struct {
	ID        string  `json:"id" xml:"id"`
	SrcNode   ID      `json:"src_node" xml:"src>node"`
	SrcPort   string  `json:"src_port" xml:"src>port"`
	DstNode   ID      `json:"dst_node" xml:"dst>node"`
	DstPort   string  `json:"dst_port" xml:"dst>port"`
	Bandwidth float64 `json:"bandwidth,omitempty" xml:"bandwidth,omitempty"` // demand
	Delay     float64 `json:"delay,omitempty" xml:"delay,omitempty"`         // max tolerated
	// FlowDst names the chain's terminal SAP for ingress classification.
	// Orchestrators set it when splitting hops across domains so a border
	// segment still classifies on the true end-to-end destination; empty
	// means "derive by walking the chain".
	FlowDst ID `json:"flow_dst,omitempty" xml:"flow_dst,omitempty"`
}

// Requirement is an end-to-end constraint across a sequence of SG hops
// (typically SAP-to-SAP): the paper's "bandwidth or delay constraints between
// arbitrary elements in the service graph".
type Requirement struct {
	ID        string   `json:"id" xml:"id"`
	SrcNode   ID       `json:"src_node" xml:"src>node"`
	DstNode   ID       `json:"dst_node" xml:"dst>node"`
	HopIDs    []string `json:"hops" xml:"hops>hop"`
	Bandwidth float64  `json:"bandwidth,omitempty" xml:"bandwidth,omitempty"` // min e2e
	Delay     float64  `json:"delay,omitempty" xml:"delay,omitempty"`         // max e2e
}

// NFFG is the complete graph: the single structure exchanged on the Unify
// interface in every direction.
type NFFG struct {
	ID      string `json:"id" xml:"id,attr"`
	Name    string `json:"name,omitempty" xml:"name,omitempty"`
	Version int    `json:"version" xml:"version,attr"`

	Infras map[ID]*Infra `json:"-" xml:"-"`
	NFs    map[ID]*NF    `json:"-" xml:"-"`
	SAPs   map[ID]*SAP   `json:"-" xml:"-"`

	Links []*Link        `json:"links,omitempty" xml:"links>link,omitempty"`
	Hops  []*SGHop       `json:"sg_hops,omitempty" xml:"sg_hops>hop,omitempty"`
	Reqs  []*Requirement `json:"requirements,omitempty" xml:"requirements>requirement,omitempty"`

	// sealed marks the graph as a shared immutable snapshot (see Seal).
	sealed bool
	// owned is non-nil on a fork (see Fork): the entities the fork cloned
	// and may write in place. Every other entity is shared.
	owned map[any]struct{}
	// shape is the compiled topology InfraTopo last derived (see there).
	shape shapeRef
}

// shapeRef publishes a compiled topology among the goroutines that map on one
// sealed graph at once. The atomic sits behind a pointer because graphs are
// assigned by value when decoding; a graph no constructor made has none, and
// keeps no shape.
type shapeRef struct {
	p *atomic.Pointer[topo.Structure]
}

func (r shapeRef) Load() *topo.Structure {
	if r.p == nil {
		return nil
	}
	return r.p.Load()
}

func (r shapeRef) Store(s *topo.Structure) {
	if r.p != nil {
		r.p.Store(s)
	}
}

// Seal marks the graph as a shared read-only snapshot: orchestration caches
// hand one graph to many readers instead of defensively copying per call, so
// after Seal the graph must never be mutated again. Copy and Fork return an
// unsealed graph — callers that mutate a sealed view copy or fork it first.
//
// The discipline is enforced in race and nffg_sealcheck builds, where every
// mutator panics on a sealed graph; release builds compile the check away.
// Seal must happen-before the graph is published to other goroutines (the
// caches publish through atomics, which gives that ordering for free).
func (g *NFFG) Seal() *NFFG {
	g.sealed = true
	g.owned = nil
	return g
}

// Sealed reports whether the graph is a shared read-only snapshot.
func (g *NFFG) Sealed() bool { return g.sealed }

// mustMutable is the per-mutator seal assertion (free in release builds).
func (g *NFFG) mustMutable(op string) {
	if sealCheckEnabled && g.sealed {
		panic("nffg: " + op + " on sealed graph " + g.ID + " (Copy before mutating a shared snapshot)")
	}
}

// Errors shared by model operations.
var (
	ErrDuplicateID = errors.New("nffg: duplicate ID")
	ErrNotFound    = errors.New("nffg: not found")
	ErrInvalid     = errors.New("nffg: invalid graph")
)

// New returns an empty NFFG with the given ID.
func New(id string) *NFFG {
	return NewSized(id, 0, 0, 0)
}

// NewSized returns an empty NFFG with node maps pre-sized for the given
// counts — the allocation-friendly constructor behind Copy and the DoV merge
// paths, where target sizes are known up front.
func NewSized(id string, infras, nfs, saps int) *NFFG {
	return &NFFG{
		ID:     id,
		Infras: make(map[ID]*Infra, infras),
		NFs:    make(map[ID]*NF, nfs),
		SAPs:   make(map[ID]*SAP, saps),
		shape:  shapeRef{new(atomic.Pointer[topo.Structure])},
	}
}

// AddInfra inserts a BiS-BiS node.
func (g *NFFG) AddInfra(i *Infra) error {
	g.mustMutable("AddInfra")
	g.shape.Store(nil)
	if g.hasNode(i.ID) {
		return fmt.Errorf("%w: %s", ErrDuplicateID, i.ID)
	}
	g.Infras[i.ID] = i
	return nil
}

// AddNF inserts an NF node.
func (g *NFFG) AddNF(n *NF) error {
	g.mustMutable("AddNF")
	if g.hasNode(n.ID) {
		return fmt.Errorf("%w: %s", ErrDuplicateID, n.ID)
	}
	if n.Status == "" {
		n.Status = StatusPlanned
	}
	g.NFs[n.ID] = n
	return nil
}

// AddSAP inserts a service access point.
func (g *NFFG) AddSAP(s *SAP) error {
	g.mustMutable("AddSAP")
	g.shape.Store(nil)
	if g.hasNode(s.ID) {
		return fmt.Errorf("%w: %s", ErrDuplicateID, s.ID)
	}
	if s.Port == nil {
		s.Port = &Port{ID: "1"}
	}
	g.SAPs[s.ID] = s
	return nil
}

// RemoveNF deletes an NF and any SG hops touching it.
func (g *NFFG) RemoveNF(id ID) error {
	g.mustMutable("RemoveNF")
	if _, ok := g.NFs[id]; !ok {
		return fmt.Errorf("%w: NF %s", ErrNotFound, id)
	}
	delete(g.NFs, id)
	kept := g.Hops[:0]
	for _, h := range g.Hops {
		if h.SrcNode != id && h.DstNode != id {
			kept = append(kept, h)
		}
	}
	g.Hops = kept
	return nil
}

// AddLink inserts a static link after verifying its endpoints exist.
func (g *NFFG) AddLink(l *Link) error {
	g.mustMutable("AddLink")
	g.shape.Store(nil)
	for _, existing := range g.Links {
		if existing.ID == l.ID {
			return fmt.Errorf("%w: link %s", ErrDuplicateID, l.ID)
		}
	}
	if err := g.checkEndpoint(l.SrcNode, l.SrcPort); err != nil {
		return fmt.Errorf("link %s src: %w", l.ID, err)
	}
	if err := g.checkEndpoint(l.DstNode, l.DstPort); err != nil {
		return fmt.Errorf("link %s dst: %w", l.ID, err)
	}
	g.Links = append(g.Links, l)
	return nil
}

// AddDuplexLink adds a bidirectional static link as two directed links with
// "/fwd" and "/rev" suffixes, mirroring topo.AddDuplexLink.
func (g *NFFG) AddDuplexLink(id string, aNode ID, aPort string, bNode ID, bPort string, bw, delay float64) error {
	if err := g.AddLink(&Link{ID: id + "/fwd", SrcNode: aNode, SrcPort: aPort, DstNode: bNode, DstPort: bPort, Bandwidth: bw, Delay: delay}); err != nil {
		return err
	}
	if err := g.AddLink(&Link{ID: id + "/rev", SrcNode: bNode, SrcPort: bPort, DstNode: aNode, DstPort: aPort, Bandwidth: bw, Delay: delay}); err != nil {
		return err
	}
	return nil
}

// AddHop inserts a service-graph hop after verifying endpoints.
func (g *NFFG) AddHop(h *SGHop) error {
	g.mustMutable("AddHop")
	for _, existing := range g.Hops {
		if existing.ID == h.ID {
			return fmt.Errorf("%w: hop %s", ErrDuplicateID, h.ID)
		}
	}
	if err := g.checkEndpoint(h.SrcNode, h.SrcPort); err != nil {
		return fmt.Errorf("hop %s src: %w", h.ID, err)
	}
	if err := g.checkEndpoint(h.DstNode, h.DstPort); err != nil {
		return fmt.Errorf("hop %s dst: %w", h.ID, err)
	}
	g.Hops = append(g.Hops, h)
	return nil
}

// AddReq inserts an end-to-end requirement; all referenced hops must exist.
func (g *NFFG) AddReq(r *Requirement) error {
	g.mustMutable("AddReq")
	for _, hid := range r.HopIDs {
		if g.HopByID(hid) == nil {
			return fmt.Errorf("%w: requirement %s references hop %s", ErrNotFound, r.ID, hid)
		}
	}
	g.Reqs = append(g.Reqs, r)
	return nil
}

// HopByID returns the SG hop with the given ID, or nil.
func (g *NFFG) HopByID(id string) *SGHop {
	for _, h := range g.Hops {
		if h.ID == id {
			return h
		}
	}
	return nil
}

// LinkByID returns the static link with the given ID, or nil.
func (g *NFFG) LinkByID(id string) *Link {
	for _, l := range g.Links {
		if l.ID == id {
			return l
		}
	}
	return nil
}

func (g *NFFG) hasNode(id ID) bool {
	if _, ok := g.Infras[id]; ok {
		return true
	}
	if _, ok := g.NFs[id]; ok {
		return true
	}
	_, ok := g.SAPs[id]
	return ok
}

func (g *NFFG) checkEndpoint(node ID, port string) error {
	if i, ok := g.Infras[node]; ok {
		if i.Port(port) == nil {
			return fmt.Errorf("%w: port %s on infra %s", ErrNotFound, port, node)
		}
		return nil
	}
	if n, ok := g.NFs[node]; ok {
		if n.Port(port) == nil {
			return fmt.Errorf("%w: port %s on NF %s", ErrNotFound, port, node)
		}
		return nil
	}
	if s, ok := g.SAPs[node]; ok {
		if s.Port.ID != port {
			return fmt.Errorf("%w: port %s on SAP %s", ErrNotFound, port, node)
		}
		return nil
	}
	return fmt.Errorf("%w: node %s", ErrNotFound, node)
}

// InfraIDs returns sorted infra node IDs.
func (g *NFFG) InfraIDs() []ID { return sortedIDs(g.Infras) }

// NFIDs returns sorted NF node IDs.
func (g *NFFG) NFIDs() []ID { return sortedIDs(g.NFs) }

// SAPIDs returns sorted SAP IDs.
func (g *NFFG) SAPIDs() []ID { return sortedIDs(g.SAPs) }

// NFsOn returns the NFs mapped onto the given infra node, sorted by ID.
func (g *NFFG) NFsOn(infra ID) []*NF {
	var out []*NF
	for _, id := range g.NFIDs() {
		if g.NFs[id].Host == infra {
			out = append(out, g.NFs[id])
		}
	}
	return out
}

// AvailableResources returns an infra's capacity minus the demand of all NFs
// currently mapped to it.
func (g *NFFG) AvailableResources(infra ID) (Resources, error) {
	i, ok := g.Infras[infra]
	if !ok {
		return Resources{}, fmt.Errorf("%w: infra %s", ErrNotFound, infra)
	}
	avail := i.Capacity
	for _, nf := range g.NFsOn(infra) {
		var ok bool
		avail, ok = avail.Sub(nf.Demand)
		if !ok {
			return avail, fmt.Errorf("%w: infra %s oversubscribed", ErrInvalid, infra)
		}
	}
	return avail, nil
}

// NextVersion bumps the version counter and returns the new value.
func (g *NFFG) NextVersion() int {
	g.mustMutable("NextVersion")
	g.Version++
	return g.Version
}

func sortedIDs[V any](m map[ID]V) []ID {
	ids := make([]ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
