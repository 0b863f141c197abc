package dataplane

import "fmt"

// Endpoint is a hashable traffic endpoint (a SAP name at the service level),
// following gopacket's Endpoint idea: comparable, usable as a map key.
type Endpoint string

// FlowKey identifies a service-level flow: source and destination endpoint.
type FlowKey struct {
	Src, Dst Endpoint
}

func (f FlowKey) String() string { return fmt.Sprintf("%s->%s", f.Src, f.Dst) }

// Packet is the simulation unit. Tag carries the service tag pushed/popped by
// BiS-BiS flowrules; Trace records every element the packet visited, which is
// how tests and the demo verify steering (the paper's "transparently inserted
// NFs in the path").
type Packet struct {
	Flow    FlowKey
	Tag     string
	Seq     uint64
	Size    int // bytes
	Payload []byte
	// Trace accumulates "node[:detail]" strings in visit order.
	Trace []string
	// Born is the virtual time the packet entered the network.
	Born VirtualTime
	// Dropped, when non-empty, records where and why the packet died.
	Dropped string
}

// NewPacket creates a packet of the given size between two endpoints.
func NewPacket(src, dst Endpoint, seq uint64, size int) *Packet {
	return &Packet{Flow: FlowKey{Src: src, Dst: dst}, Seq: seq, Size: size}
}

// Visit appends a trace entry.
func (p *Packet) Visit(where string) { p.Trace = append(p.Trace, where) }

// Copy duplicates the packet (for Tee-style NFs).
func (p *Packet) Copy() *Packet {
	c := *p
	c.Payload = append([]byte(nil), p.Payload...)
	c.Trace = append([]string(nil), p.Trace...)
	return &c
}
