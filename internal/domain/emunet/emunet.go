// Package emunet builds runnable emulated networks from NFFG substrate
// descriptions: one dataplane switch per BiS-BiS, one traffic host per user
// SAP, wires per static link. It also provides the shared translation from
// virtualizer flowrules to concrete dataplane rules, including the NF-port
// indirection every execution environment needs.
//
// Border SAPs (stitch points between domains) are not given hosts; instead
// their attachment ports are exposed so two domains' networks can be patched
// together with a plain wire — which is what an inter-domain link physically
// is.
package emunet

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/unify-repro/escape/internal/dataplane"
	"github.com/unify-repro/escape/internal/nffg"
)

// Errors of the emulated network.
var (
	ErrUnknownNode = errors.New("emunet: unknown node")
	ErrUnknownNF   = errors.New("emunet: unknown NF instance")
	ErrBadPort     = errors.New("emunet: bad port")
)

// Net is an emulated domain network.
type Net struct {
	Eng *dataplane.Engine

	mu       sync.Mutex
	switches map[nffg.ID]*dataplane.Switch
	saps     map[nffg.ID]*dataplane.SAPHost
	// borderPorts maps border SAP ID -> (switch, port) of its attachment,
	// available for cross-domain patching.
	borderPorts map[nffg.ID]Attachment
	// nfs tracks running NF instances and their switch-port allocations.
	nfs map[nffg.ID]*nfInstance
	// nextPort allocates dynamic (NF) ports per switch, above static ones.
	nextPort map[nffg.ID]int
	// freePorts holds, per switch and ascending, the dynamic ports stopped NFs
	// gave back. They go out again lowest first, before nextPort grows:
	// OpenFlow port numbers are 16 bits, and a counter that only climbs runs
	// out of them after 32 768 two-port NFs.
	freePorts map[nffg.ID][]int
}

// Attachment names a concrete switch port.
type Attachment struct {
	Node nffg.ID
	Port int
}

type nfInstance struct {
	host  *dataplane.NFHost
	sw    nffg.ID
	ports map[string]int // NF port ID -> switch port number
}

// Build constructs the network for a substrate: infra nodes become switches,
// user SAPs become traffic hosts, border SAPs (IDs listed in borders) get
// exposed attachment ports instead of hosts.
func Build(eng *dataplane.Engine, substrate *nffg.NFFG, borders map[nffg.ID]bool) (*Net, error) {
	n := &Net{
		Eng:         eng,
		switches:    map[nffg.ID]*dataplane.Switch{},
		saps:        map[nffg.ID]*dataplane.SAPHost{},
		borderPorts: map[nffg.ID]Attachment{},
		nfs:         map[nffg.ID]*nfInstance{},
		nextPort:    map[nffg.ID]int{},
		freePorts:   map[nffg.ID][]int{},
	}
	for _, id := range substrate.InfraIDs() {
		n.switches[id] = dataplane.NewSwitch(eng, string(id))
		max := 0
		for _, p := range substrate.Infras[id].Ports {
			if v, err := strconv.Atoi(p.ID); err == nil && v > max {
				max = v
			}
		}
		n.nextPort[id] = max + 1
	}
	for _, id := range substrate.SAPIDs() {
		if !borders[id] {
			n.saps[id] = dataplane.NewSAPHost(eng, dataplane.Endpoint(id))
		}
	}
	// Wire static links; only "/fwd" of each duplex pair to avoid doubles.
	for _, l := range substrate.Links {
		if strings.HasSuffix(l.ID, "/rev") {
			continue
		}
		src, sp, err := n.endpoint(l.SrcNode, l.SrcPort, borders)
		if err != nil {
			return nil, fmt.Errorf("link %s: %w", l.ID, err)
		}
		dst, dp, err := n.endpoint(l.DstNode, l.DstPort, borders)
		if err != nil {
			return nil, fmt.Errorf("link %s: %w", l.ID, err)
		}
		// A border endpoint: record the opposite side's attachment and skip
		// the wire (patched later across domains).
		if src == nil {
			n.borderPorts[l.SrcNode] = Attachment{Node: l.DstNode, Port: dp}
			continue
		}
		if dst == nil {
			n.borderPorts[l.DstNode] = Attachment{Node: l.SrcNode, Port: sp}
			continue
		}
		if err := dataplane.Connect(eng, src, sp, dst, dp, l.Bandwidth, l.Delay); err != nil {
			return nil, fmt.Errorf("link %s: %w", l.ID, err)
		}
	}
	return n, nil
}

func (n *Net) endpoint(node nffg.ID, port string, borders map[nffg.ID]bool) (dataplane.Node, int, error) {
	if sw, ok := n.switches[node]; ok {
		p, err := strconv.Atoi(port)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %s.%s", ErrBadPort, node, port)
		}
		return sw, p, nil
	}
	if borders[node] {
		return nil, 0, nil // border SAP: no host
	}
	if sap, ok := n.saps[node]; ok {
		return sap, 1, nil
	}
	return nil, 0, fmt.Errorf("%w: %s", ErrUnknownNode, node)
}

// Switch returns the dataplane switch for an infra node.
func (n *Net) Switch(id nffg.ID) (*dataplane.Switch, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sw, ok := n.switches[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	return sw, nil
}

// SwitchIDs lists the infra nodes, sorted.
func (n *Net) SwitchIDs() []nffg.ID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]nffg.ID, 0, len(n.switches))
	for id := range n.switches {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SAP returns the traffic host of a user SAP.
func (n *Net) SAP(id nffg.ID) (*dataplane.SAPHost, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.saps[id]
	if !ok {
		return nil, fmt.Errorf("%w: SAP %s", ErrUnknownNode, id)
	}
	return s, nil
}

// BorderPort exposes the attachment point of a border SAP.
func (n *Net) BorderPort(sap nffg.ID) (Attachment, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a, ok := n.borderPorts[sap]
	if !ok {
		return Attachment{}, fmt.Errorf("%w: border %s", ErrUnknownNode, sap)
	}
	return a, nil
}

// Patch wires a border SAP of this network to a border SAP of another
// network (possibly the same), modelling the physical inter-domain link.
func Patch(a *Net, sapA nffg.ID, b *Net, sapB nffg.ID, mbps, delayMs float64) error {
	if a.Eng != b.Eng {
		return errors.New("emunet: patch requires a shared engine")
	}
	atA, err := a.BorderPort(sapA)
	if err != nil {
		return err
	}
	atB, err := b.BorderPort(sapB)
	if err != nil {
		return err
	}
	swA, err := a.Switch(atA.Node)
	if err != nil {
		return err
	}
	swB, err := b.Switch(atB.Node)
	if err != nil {
		return err
	}
	return dataplane.Connect(a.Eng, swA, atA.Port, swB, atB.Port, mbps, delayMs)
}

// StartNF instantiates a processor as an NF attached to the given switch,
// allocating one switch port per NF port. It returns the port allocation
// (NF port ID -> switch port number).
func (n *Net) StartNF(id nffg.ID, host nffg.ID, ports []string, proc dataplane.Processor) (map[string]int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sw, ok := n.switches[host]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, host)
	}
	if _, dup := n.nfs[id]; dup {
		return nil, fmt.Errorf("emunet: NF %s already running", id)
	}
	inst := &nfInstance{
		host:  dataplane.NewNFHost(n.Eng, string(id), proc),
		sw:    host,
		ports: map[string]int{},
	}
	for i, portID := range ports {
		var swPort int
		if free := n.freePorts[host]; len(free) > 0 {
			swPort, n.freePorts[host] = free[0], free[1:]
		} else {
			swPort = n.nextPort[host]
			n.nextPort[host]++
		}
		nfPort, err := strconv.Atoi(portID)
		if err != nil {
			nfPort = i + 1
		}
		// NF attachment links: effectively infinite bandwidth, tiny delay.
		if err := dataplane.Connect(n.Eng, sw, swPort, inst.host, nfPort, 0, 0.01); err != nil {
			return nil, err
		}
		inst.ports[portID] = swPort
	}
	n.nfs[id] = inst
	return copyPorts(inst.ports), nil
}

// StopNF detaches and forgets an NF instance.
func (n *Net) StopNF(id nffg.ID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	inst, ok := n.nfs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNF, id)
	}
	sw := n.switches[inst.sw]
	for nfPortID, swPort := range inst.ports {
		dataplane.Detach(sw, swPort)
		free := n.freePorts[inst.sw]
		at, _ := slices.BinarySearch(free, swPort)
		n.freePorts[inst.sw] = slices.Insert(free, at, swPort)
		if p, err := strconv.Atoi(nfPortID); err == nil {
			dataplane.Detach(inst.host, p)
		}
	}
	delete(n.nfs, id)
	return nil
}

// NFPorts returns the switch-port allocation of a running NF.
func (n *Net) NFPorts(id nffg.ID) (map[string]int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	inst, ok := n.nfs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNF, id)
	}
	return copyPorts(inst.ports), nil
}

// NF returns the dataplane host of a running NF (for stats).
func (n *Net) NF(id nffg.ID) (*dataplane.NFHost, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	inst, ok := n.nfs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNF, id)
	}
	return inst.host, nil
}

// RunningNFs lists running NF IDs, sorted.
func (n *Net) RunningNFs() []nffg.ID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]nffg.ID, 0, len(n.nfs))
	for id := range n.nfs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TranslateRule converts a virtualizer flowrule into a dataplane rule, using
// the NF port allocations to resolve NF port references. The priority policy
// gives tagged matches precedence over untagged ones.
func TranslateRule(f *nffg.Flowrule, nfPorts func(nf nffg.ID) (map[string]int, error)) (*dataplane.Rule, error) {
	resolve := func(p nffg.PortRef) (int, error) {
		if !p.IsNF() {
			v, err := strconv.Atoi(p.Port)
			if err != nil {
				return 0, fmt.Errorf("%w: %s", ErrBadPort, p)
			}
			return v, nil
		}
		ports, err := nfPorts(p.NF)
		if err != nil {
			return 0, err
		}
		v, ok := ports[p.Port]
		if !ok {
			return 0, fmt.Errorf("%w: NF %s port %s", ErrBadPort, p.NF, p.Port)
		}
		return v, nil
	}
	in, err := resolve(f.Match.InPort)
	if err != nil {
		return nil, err
	}
	out, err := resolve(f.Action.Output)
	if err != nil {
		return nil, err
	}
	prio := f.Priority
	if prio == 0 {
		if f.Match.Tag != "" {
			prio = 100
		} else {
			prio = 10
		}
	}
	return &dataplane.Rule{
		ID:       f.ID,
		Priority: prio,
		Match: dataplane.Match{
			InPort: in,
			Tag:    f.Match.Tag,
			AnyTag: f.Match.Tag == "" && !f.Match.MatchUntagged,
			Dst:    dataplane.Endpoint(f.Match.DstSAP),
		},
		Action: dataplane.Action{OutPort: out, PushTag: f.Action.PushTag, PopTag: f.Action.PopTag},
	}, nil
}

func copyPorts(in map[string]int) map[string]int {
	out := make(map[string]int, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}
