// Package bench is unifybench: one load generator that wires the real
// orchestration layers the way cmd/escaped does, drives five named workloads
// through them, checks the outputs, and reports end-to-end and per-layer
// metrics. It changes no product code; see README.md.
package bench

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/unify-repro/escape/internal/nffg"
)

// Topology is a ring of leaf domains stitched by border SAPs b00..bNN. Every
// leaf is a three-node line substrate with Pairs user SAP pairs: the "a" SAP
// of a pair hangs off the first node, the "z" SAP off the last, so a chain
// between the two crosses the whole line. The first Residents pairs of every
// leaf hold a service installed during set-up; the rest are free for churn.
type Topology struct {
	Name      string
	Domains   int
	Pairs     int
	Residents int
}

// The two topologies of BENCHMARK.json, and the tiny one the tests use.
var (
	Ring16 = Topology{Name: "ring16", Domains: 16, Pairs: 48, Residents: 32}
	Ring8  = Topology{Name: "ring8", Domains: 8, Pairs: 8}
	Ring4  = Topology{Name: "ring4", Domains: 4, Pairs: 16, Residents: 2}
)

// nfTypes are the NF types every leaf supports and the generator draws from.
var nfTypes = []string{"firewall", "dpi", "nat", "compress"}

func domainID(d int) string { return fmt.Sprintf("d%02d", d) }

// sapA and sapZ name the two user SAPs of pair k in domain d.
func sapA(d, k int) nffg.ID { return nffg.ID(fmt.Sprintf("d%02da%02d", d, k)) }
func sapZ(d, k int) nffg.ID { return nffg.ID(fmt.Sprintf("d%02dz%02d", d, k)) }

// border names the SAP shared by domain d (right side) and domain d+1 (left).
func (t Topology) border(d int) nffg.ID {
	return nffg.ID(fmt.Sprintf("b%02d", (d+t.Domains)%t.Domains))
}

// Substrate builds leaf d: border(d-1) - n1 - n2 - n3 - border(d), with the
// user SAPs on n1 and n3. Capacities are sized so that no request of any
// workload is ever refused for lack of resources.
func (t Topology) Substrate(d int) *nffg.NFFG {
	id := domainID(d)
	n := func(i int) nffg.ID { return nffg.ID(fmt.Sprintf("%s-n%d", id, i)) }
	capacity := nffg.Resources{CPU: 1 << 16, Mem: 1 << 26, Storage: 1 << 20}
	b := nffg.NewBuilder(id + "-sub")
	b.BiSBiS(n(1), id, t.Pairs+2, capacity, nfTypes...)
	b.BiSBiS(n(2), id, 2, capacity, nfTypes...)
	b.BiSBiS(n(3), id, t.Pairs+2, capacity, nfTypes...)
	left, right := t.border(d-1), t.border(d)
	b.SAP(left).SAP(right)
	b.Link("bl", left, "1", n(1), "1", 1e6, 0.5)
	b.Link("l1", n(1), "2", n(2), "1", 1e6, 0.5)
	b.Link("l2", n(2), "2", n(3), "1", 1e6, 0.5)
	b.Link("br", n(3), "2", right, "1", 1e6, 0.5)
	for k := 0; k < t.Pairs; k++ {
		b.SAP(sapA(d, k)).SAP(sapZ(d, k))
		b.Link(fmt.Sprintf("ua%02d", k), sapA(d, k), "1", n(1), fmt.Sprint(k+3), 1e6, 0.1)
		b.Link(fmt.Sprintf("uz%02d", k), n(3), fmt.Sprint(k+3), sapZ(d, k), "1", 1e6, 0.1)
	}
	return b.MustBuild()
}

// chain builds an unpinned service chain src -> nf0 -> ... -> dst. NF types
// come from rng, so the seed fixes them.
func chain(id string, src, dst nffg.ID, nfs int, bw float64, rng *rand.Rand) *nffg.NFFG {
	b := nffg.NewBuilder(id).SAP(src)
	if dst != src {
		b.SAP(dst)
	}
	nodes := []nffg.ID{src}
	for i := 0; i < nfs; i++ {
		nf := nffg.ID(fmt.Sprintf("%s-nf%d", id, i))
		b.NF(nf, nfTypes[rng.Intn(len(nfTypes))], 2, nffg.Resources{CPU: 2, Mem: 1024, Storage: 4})
		nodes = append(nodes, nf)
	}
	nodes = append(nodes, dst)
	b.Chain(id, bw, 0, nodes...)
	return b.MustBuild()
}

// residentID names the service set-up installs on pair k of domain d.
func residentID(d, k int) string { return fmt.Sprintf("res-%02d-%02d", d, k) }

// ResidentIDs lists every resident service of the topology, sorted the way
// Layer.Services sorts.
func (t Topology) ResidentIDs() []string {
	ids := make([]string, 0, t.Domains*t.Residents)
	for d := 0; d < t.Domains; d++ {
		for k := 0; k < t.Residents; k++ {
			ids = append(ids, residentID(d, k))
		}
	}
	return ids
}

// slots is the free-list of churn pairs: a measured install takes a pair no
// live service holds and gives it back after its remove, so no request can
// collide with a live service (a collision is a rejection, and every
// rejection escalates to a full-DoV plan).
type slots struct {
	mu   sync.Mutex
	free [][]int // per domain, the free pair indices
}

func newSlots(t Topology) *slots {
	s := &slots{free: make([][]int, t.Domains)}
	for d := range s.free {
		for k := t.Pairs - 1; k >= t.Residents; k-- {
			s.free[d] = append(s.free[d], k)
		}
	}
	return s
}

// take removes a free pair of domain d; ok is false when the domain has none.
func (s *slots) take(d int) (k int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free[d])
	if n == 0 {
		return 0, false
	}
	k = s.free[d][n-1]
	s.free[d] = s.free[d][:n-1]
	return k, true
}

func (s *slots) give(d, k int) {
	s.mu.Lock()
	s.free[d] = append(s.free[d], k)
	s.mu.Unlock()
}
