// Package monitor collects and renders dataplane statistics from the
// emulated infrastructure: per-port and per-rule counters from switches, NF
// processing counts and per-service hop activity — the numbers behind "the
// chain is carrying traffic". The control plane has its own two views of one
// stats document: `unifyctl stats` (text) and GET /metrics (Prometheus), both
// served by internal/api.
package monitor

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/unify-repro/escape/internal/domain/emunet"
)

// PortCounters is one switch port's counters.
type PortCounters struct {
	Node string
	Port int
	RxPk uint64
	TxPk uint64
}

// FlowCounters is one flow rule's counters.
type FlowCounters struct {
	Node    string
	RuleID  string
	Packets uint64
	Bytes   uint64
}

// NFCounters is one NF instance's processing count.
type NFCounters struct {
	NF        string
	Processed uint64
}

// Snapshot is a point-in-time stats collection.
type Snapshot struct {
	Ports []PortCounters
	Flows []FlowCounters
	NFs   []NFCounters
}

// Source produces snapshots.
type Source interface {
	Collect() (*Snapshot, error)
}

// NetSource collects from an emulated network, labeling entries with the
// domain name.
type NetSource struct {
	Domain string
	Net    *emunet.Net
}

// Collect implements Source.
func (s NetSource) Collect() (*Snapshot, error) {
	snap := &Snapshot{}
	for _, swID := range s.Net.SwitchIDs() {
		sw, err := s.Net.Switch(swID)
		if err != nil {
			return nil, err
		}
		node := s.Domain + "/" + string(swID)
		for _, ps := range sw.Ports() {
			snap.Ports = append(snap.Ports, PortCounters{Node: node, Port: ps.Port, RxPk: ps.RxPk, TxPk: ps.TxPk})
		}
		for _, r := range sw.Table.Rules() {
			pk, by := r.Counters()
			snap.Flows = append(snap.Flows, FlowCounters{Node: node, RuleID: r.ID, Packets: pk, Bytes: by})
		}
	}
	for _, nfID := range s.Net.RunningNFs() {
		nf, err := s.Net.NF(nfID)
		if err != nil {
			return nil, err
		}
		snap.NFs = append(snap.NFs, NFCounters{NF: s.Domain + "/" + string(nfID), Processed: nf.Processed()})
	}
	return snap, nil
}

// Merge combines snapshots from several sources.
func Merge(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		out.Ports = append(out.Ports, s.Ports...)
		out.Flows = append(out.Flows, s.Flows...)
		out.NFs = append(out.NFs, s.NFs...)
	}
	sort.Slice(out.Ports, func(i, j int) bool {
		if out.Ports[i].Node != out.Ports[j].Node {
			return out.Ports[i].Node < out.Ports[j].Node
		}
		return out.Ports[i].Port < out.Ports[j].Port
	})
	sort.Slice(out.Flows, func(i, j int) bool {
		if out.Flows[i].Node != out.Flows[j].Node {
			return out.Flows[i].Node < out.Flows[j].Node
		}
		return out.Flows[i].RuleID < out.Flows[j].RuleID
	})
	sort.Slice(out.NFs, func(i, j int) bool { return out.NFs[i].NF < out.NFs[j].NF })
	return out
}

// CollectAll gathers and merges every source, skipping failing ones.
func CollectAll(sources ...Source) *Snapshot {
	var snaps []*Snapshot
	for _, src := range sources {
		if s, err := src.Collect(); err == nil {
			snaps = append(snaps, s)
		}
	}
	return Merge(snaps...)
}

// HopActivity maps a service's hops to the packets its rules matched, keyed
// by hop ID: the per-chain health signal. Rule IDs generated by the
// orchestrator embed the hop ID ("<hop>@<node>" or split "<hop>#<k>@<node>").
func (s *Snapshot) HopActivity() map[string]uint64 {
	out := map[string]uint64{}
	for _, f := range s.Flows {
		id := f.RuleID
		if i := strings.IndexByte(id, '@'); i >= 0 {
			id = id[:i]
		}
		if i := strings.IndexByte(id, '#'); i >= 0 {
			id = id[:i]
		}
		out[id] += f.Packets
	}
	return out
}

// TotalPackets sums rule-matched packets.
func (s *Snapshot) TotalPackets() uint64 {
	var total uint64
	for _, f := range s.Flows {
		total += f.Packets
	}
	return total
}

// Render writes a fixed-width text report.
func (s *Snapshot) Render(w io.Writer) {
	fmt.Fprintf(w, "%-28s %5s %10s %10s\n", "NODE", "PORT", "RX", "TX")
	for _, p := range s.Ports {
		fmt.Fprintf(w, "%-28s %5d %10d %10d\n", p.Node, p.Port, p.RxPk, p.TxPk)
	}
	fmt.Fprintf(w, "\n%-28s %-24s %10s %12s\n", "NODE", "RULE", "PACKETS", "BYTES")
	for _, f := range s.Flows {
		fmt.Fprintf(w, "%-28s %-24s %10d %12d\n", f.Node, f.RuleID, f.Packets, f.Bytes)
	}
	if len(s.NFs) > 0 {
		fmt.Fprintf(w, "\n%-28s %10s\n", "NF", "PROCESSED")
		for _, n := range s.NFs {
			fmt.Fprintf(w, "%-28s %10d\n", n.NF, n.Processed)
		}
	}
}
