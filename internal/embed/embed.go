// Package embed implements the resource orchestration algorithms: mapping a
// service request (NFs + service-graph hops + end-to-end requirements) onto a
// virtualization view (interconnected BiS-BiS nodes with capacities).
//
// The primary algorithm is a constraint-aware greedy mapper with bounded
// backtracking and optional NF-decomposition branching, in the spirit of the
// mapping algorithm the paper imports from Sahhaf et al. (NetSoft 2015).
// First-fit and random-fit baselines share the same engine so benchmark
// comparisons isolate the placement policy.
package embed

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"github.com/unify-repro/escape/internal/decomp"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/topo"
)

// Errors reported by the mapper.
var (
	ErrNoCandidates = errors.New("embed: no feasible host for NF")
	ErrNoPath       = errors.New("embed: no feasible path for hop")
	ErrRequirement  = errors.New("embed: end-to-end requirement violated")
	ErrExhausted    = errors.New("embed: backtracking budget exhausted")
	ErrUnmappable   = errors.New("embed: request cannot be mapped")
)

// Mapping is the result of a successful embedding.
type Mapping struct {
	// Request is the (possibly decomposition-expanded) request that mapped.
	Request *nffg.NFFG
	// NFHost assigns each request NF to a substrate BiS-BiS.
	NFHost map[nffg.ID]nffg.ID
	// Paths assigns each SG hop a substrate path (between the endpoints'
	// locations; empty path for co-located endpoints).
	Paths map[string]topo.Path
	// Applied lists decomposition rewrites used ("nf:rule"), empty if none.
	Applied []string
	// Footprint is the bandwidth-hop product summed over hops (lower is a
	// tighter embedding).
	Footprint float64
	// Backtracks counts placement retractions performed during the search.
	Backtracks int
}

// RankFunc orders candidate hosts for an NF. It receives the free resources
// of each candidate and returns the candidate IDs in preference order.
type RankFunc func(nf *nffg.NF, candidates []Candidate) []nffg.ID

// Candidate is a feasible host with its current free capacity.
type Candidate struct {
	ID   nffg.ID
	Free nffg.Resources
}

// BestFit prefers the host whose remaining CPU after placement is smallest
// (pack tightly, keep big nodes free for big NFs).
func BestFit(nf *nffg.NF, cands []Candidate) []nffg.ID {
	sort.SliceStable(cands, func(i, j int) bool {
		ri := cands[i].Free.CPU - nf.Demand.CPU
		rj := cands[j].Free.CPU - nf.Demand.CPU
		if ri != rj {
			return ri < rj
		}
		return cands[i].ID < cands[j].ID
	})
	return candidateIDs(cands)
}

// FirstFit takes hosts in ID order.
func FirstFit(_ *nffg.NF, cands []Candidate) []nffg.ID {
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].ID < cands[j].ID })
	return candidateIDs(cands)
}

// RandomFit shuffles candidates with the given source. The source is guarded
// by a mutex: mappers run concurrently now that embedding happens outside the
// orchestrator lock, and rand.Rand is not safe for concurrent use.
func RandomFit(rng *rand.Rand) RankFunc {
	var mu sync.Mutex
	return func(_ *nffg.NF, cands []Candidate) []nffg.ID {
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].ID < cands[j].ID })
		ids := candidateIDs(cands)
		mu.Lock()
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		mu.Unlock()
		return ids
	}
}

func candidateIDs(cands []Candidate) []nffg.ID {
	out := make([]nffg.ID, len(cands))
	for i, c := range cands {
		out[i] = c.ID
	}
	return out
}

// Options tunes the mapper.
type Options struct {
	// Name labels the algorithm in results (defaults per constructor).
	Name string
	// KPaths is the number of alternative paths tried per hop (default 3).
	KPaths int
	// MaxBacktrack bounds total placement retractions (default 128; 0
	// disables backtracking — pure greedy).
	MaxBacktrack int
	// Rank orders candidate hosts (default BestFit).
	Rank RankFunc
	// Decomp enables NF-decomposition branching with the given rules.
	Decomp *decomp.Rules
}

// decompDepth bounds recursive decomposition.
const decompDepth = 2

// Mapper is a configured embedding algorithm.
type Mapper struct{ opts Options }

// New returns a mapper with the given options, applying defaults.
func New(opts Options) *Mapper {
	if opts.KPaths <= 0 {
		opts.KPaths = 3
	}
	if opts.Rank == nil {
		opts.Rank = BestFit
	}
	if opts.Name == "" {
		opts.Name = "greedy-bt"
	}
	return &Mapper{opts: opts}
}

// NewDefault returns the paper-configuration mapper: best-fit ranking,
// backtracking, no decomposition.
func NewDefault() *Mapper {
	return New(Options{Name: "greedy-bt", MaxBacktrack: 128})
}

// NewFirstFit returns the first-fit baseline (no backtracking).
func NewFirstFit() *Mapper {
	return New(Options{Name: "first-fit", Rank: FirstFit, MaxBacktrack: 0, KPaths: 1})
}

// NewRandom returns the random-fit baseline (no backtracking).
func NewRandom(seed int64) *Mapper {
	return New(Options{Name: "random-fit", Rank: RandomFit(rand.New(rand.NewSource(seed))), MaxBacktrack: 0, KPaths: 1})
}

// Name returns the algorithm label.
func (m *Mapper) Name() string { return m.opts.Name }

// Map embeds the request into the substrate. The substrate is read-only; the
// caller applies the returned mapping (or discards it). When decomposition
// rules are configured, variants are tried in cost order and the first
// feasible embedding wins.
func (m *Mapper) Map(sub, req *nffg.NFFG) (*Mapping, error) {
	return m.MapScoped(sub, req, nil)
}

// MapScoped embeds like Map but restricts each listed NF to the given set of
// candidate hosts. This is how an orchestrator translates "pinned to an
// aggregated view node" into "place anywhere within the nodes that aggregate
// expands to". Components created by decomposition inherit the scope of
// their originating NF (IDs are "<nf>.<suffix>").
func (m *Mapper) MapScoped(sub, req *nffg.NFFG, scope map[nffg.ID][]nffg.ID) (*Mapping, error) {
	scopeSets := map[nffg.ID]map[nffg.ID]bool{}
	for nf, hosts := range scope {
		set := make(map[nffg.ID]bool, len(hosts))
		for _, h := range hosts {
			set[h] = true
		}
		scopeSets[nf] = set
	}
	variants := decomp.Enumerate(req, m.opts.Decomp, decompDepth)
	var lastErr error
	for _, v := range variants {
		mp, err := m.mapOne(sub, v.G, scopeSets)
		if err == nil {
			mp.Applied = v.Applied
			return mp, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = ErrUnmappable
	}
	return nil, fmt.Errorf("%w: %v", ErrUnmappable, lastErr)
}

// scopeFor resolves the allowed-host set for an NF, falling back to the
// originating NF for decomposition components.
func scopeFor(scope map[nffg.ID]map[nffg.ID]bool, id nffg.ID) map[nffg.ID]bool {
	if s, ok := scope[id]; ok {
		return s
	}
	// Component IDs are "<nf>.<suffix>[.<suffix>...]": walk prefixes.
	s := string(id)
	for i := len(s) - 1; i > 0; i-- {
		if s[i] == '.' {
			if set, ok := scope[nffg.ID(s[:i])]; ok {
				return set
			}
		}
	}
	return nil
}

// state is the mutable search context.
type state struct {
	sub   *nffg.NFFG
	req   *nffg.NFFG
	graph *topo.Graph // working copy with bandwidth reservations
	// saved stacks what Reserve took from graph, for the exact Restore of a
	// retracted path.
	saved []float64
	// infraIDs is the substrate's infra IDs, sorted: the candidate order.
	infraIDs []nffg.ID
	// avoid is the SAPs the request's hops end at. They are terminals and must
	// not carry transit traffic; other SAPs in the substrate are inter-domain
	// border stitch points and may relay (that is how merged domain views
	// connect). A search exempts its own two endpoints.
	avoid map[topo.NodeID]bool
	free  map[nffg.ID]nffg.Resources
	host  map[nffg.ID]nffg.ID
	paths map[string]topo.Path
	scope map[nffg.ID]map[nffg.ID]bool
	// budget is the remaining backtrack allowance.
	budget int
	// backtracks counts retractions for reporting.
	backtracks int
}

func (m *Mapper) mapOne(sub, req *nffg.NFFG, scope map[nffg.ID]map[nffg.ID]bool) (*Mapping, error) {
	st := &state{
		sub:      sub,
		req:      req,
		graph:    sub.InfraTopo(),
		infraIDs: sub.InfraIDs(),
		avoid:    map[topo.NodeID]bool{},
		free:     make(map[nffg.ID]nffg.Resources, sub.Infras.Len()),
		host:     map[nffg.ID]nffg.ID{},
		paths:    map[string]topo.Path{},
		scope:    scope,
		budget:   m.opts.MaxBacktrack,
	}
	for h := range req.Hops() {
		for _, end := range []nffg.ID{h.SrcNode, h.DstNode} {
			if _, ok := req.SAPs.Lookup(end); ok {
				st.avoid[topo.NodeID(end)] = true
			}
		}
	}
	// Free capacity is what AvailableResources reports for every infra, and
	// the lowest oversubscribed infra is the error, from one pass over the
	// substrate's NFs in no order: demands are never negative, so an infra
	// goes negative somewhere in AvailableResources' subtraction exactly when
	// it ends negative. (The sums are exact for whole quantities; others may
	// round differently from AvailableResources' NF-ID order.)
	for id, infra := range sub.Infras.All() {
		st.free[id] = infra.Capacity
	}
	for _, nf := range sub.NFs.All() {
		if avail, hosted := st.free[nf.Host]; hosted {
			st.free[nf.Host], _ = avail.Sub(nf.Demand)
		}
	}
	var over nffg.ID
	for id, avail := range st.free {
		if !avail.Fits(nffg.Resources{}) && (over == "" || id < over) {
			over = id
		}
	}
	if over != "" {
		return nil, fmt.Errorf("%w: infra %s oversubscribed", nffg.ErrInvalid, over)
	}
	// Account for NFs the request pins to specific hosts up front.
	for _, id := range req.NFIDs() {
		nf := req.NFs.Get(id)
		if nf.Host == "" {
			continue
		}
		if infra, ok := sub.Infras.Lookup(nf.Host); ok && len(infra.Supported) > 0 && !infra.SupportsNF(nf.FunctionalType) {
			return nil, fmt.Errorf("%w: pinned NF %s (%s) is not supported on %s", ErrNoCandidates, id, nf.FunctionalType, nf.Host)
		}
		rem, ok := st.free[nf.Host].Sub(nf.Demand)
		if !ok {
			return nil, fmt.Errorf("%w: pinned NF %s does not fit on %s", ErrNoCandidates, id, nf.Host)
		}
		st.free[nf.Host] = rem
		st.host[id] = nf.Host
	}
	hops, err := orderHops(req)
	if err != nil {
		return nil, err
	}
	if err := m.place(st, hops, 0); err != nil {
		return nil, err
	}
	// End-to-end requirement verification.
	for r := range req.Reqs() {
		var delay float64
		minBW := math.Inf(1)
		for _, hid := range r.HopIDs {
			p := st.paths[hid]
			delay += p.Delay
			if len(p.Links) > 0 && p.MinBW < minBW {
				minBW = p.MinBW
			}
		}
		if r.Delay > 0 && delay > r.Delay {
			return nil, fmt.Errorf("%w: req %s delay %.2f > %.2f", ErrRequirement, r.ID, delay, r.Delay)
		}
	}
	mp := &Mapping{
		Request:    req,
		NFHost:     st.host,
		Paths:      st.paths,
		Backtracks: st.backtracks,
	}
	for hid, p := range st.paths {
		h := req.HopByID(hid)
		mp.Footprint += h.Bandwidth * float64(len(p.Links))
	}
	return mp, nil
}

// place maps hops[i:] recursively, branching over hosts and paths.
func (m *Mapper) place(st *state, hops []*nffg.SGHop, i int) error {
	if i == len(hops) {
		// All hops routed; any NFs never touched by a hop still need homes.
		return m.placeIsolated(st)
	}
	h := hops[i]
	srcLoc, srcPlaced := m.locate(st, h.SrcNode)
	if !srcPlaced {
		// Chain starts at an unplaced NF: choose its host first (no path
		// constraint for the node itself), then retry this hop.
		return m.branchHosts(st, st.req.NFs.Get(h.SrcNode), nil, func() error {
			return m.place(st, hops, i)
		})
	}
	dstNF, dstIsNF := st.req.NFs.Lookup(h.DstNode)
	if dstIsNF {
		if _, placed := st.host[h.DstNode]; !placed {
			// Branch over candidate hosts for the destination NF, validating
			// reachability from srcLoc per candidate.
			from := srcLoc
			return m.branchHosts(st, dstNF, &from, func() error {
				return m.routeAndContinue(st, hops, i)
			})
		}
	}
	return m.routeAndContinue(st, hops, i)
}

// routeAndContinue routes hop i between two located endpoints and recurses.
func (m *Mapper) routeAndContinue(st *state, hops []*nffg.SGHop, i int) error {
	h := hops[i]
	srcLoc, _ := m.locate(st, h.SrcNode)
	dstLoc, _ := m.locate(st, h.DstNode)
	if srcLoc == dstLoc {
		st.paths[h.ID] = topo.Path{Nodes: []topo.NodeID{topo.NodeID(srcLoc)}, MinBW: math.Inf(1)}
		err := m.place(st, hops, i+1)
		if err != nil {
			delete(st.paths, h.ID)
		}
		return err
	}
	opts := topo.PathOpts{MinBandwidth: h.Bandwidth, MaxDelay: h.Delay, Metric: topo.MetricDelay, Avoid: st.avoid}
	paths, err := st.graph.Paths(topo.NodeID(srcLoc), topo.NodeID(dstLoc), opts)
	if err != nil {
		return fmt.Errorf("%w: hop %s (%s->%s): %v", ErrNoPath, h.ID, srcLoc, dstLoc, err)
	}
	// An alternative to the shortest path is searched for only once the path
	// before it has failed, here or further down the chain.
	var lastErr error
	tried := 0
	for p := range paths {
		if tried > 0 {
			st.budget--
			st.backtracks++
		}
		tried++
		mark := len(st.saved)
		if st.saved, err = st.graph.Reserve(p.Links, h.Bandwidth, st.saved); err != nil {
			lastErr = fmt.Errorf("%w: %v", ErrNoPath, err)
		} else {
			st.paths[h.ID] = p
			if lastErr = m.place(st, hops, i+1); lastErr == nil {
				return nil
			}
			delete(st.paths, h.ID)
			st.graph.Restore(p.Links, st.saved[mark:])
			st.saved = st.saved[:mark]
		}
		if tried == m.opts.KPaths || st.budget <= 0 {
			break
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: hop %s", ErrNoPath, h.ID)
	}
	return lastErr
}

// branchHosts tries candidate hosts for nf; from (if non-nil) requires
// reachability from that location with the demanded bandwidth of the pending
// hop (cheap pre-filter; the actual path is validated by routeAndContinue).
func (m *Mapper) branchHosts(st *state, nf *nffg.NF, from *nffg.ID, cont func() error) error {
	allowed := scopeFor(st.scope, nf.ID)
	var cands []Candidate
	for _, id := range st.infraIDs {
		infra := st.sub.Infras.Get(id)
		if allowed != nil && !allowed[id] {
			continue
		}
		if len(infra.Supported) > 0 && !infra.SupportsNF(nf.FunctionalType) {
			continue
		}
		if len(infra.Supported) == 0 {
			continue // forwarding-only node
		}
		free := st.free[id]
		if !free.Fits(nf.Demand) {
			continue
		}
		if from != nil && !st.graph.Connected(topo.NodeID(*from), topo.NodeID(id)) {
			continue
		}
		cands = append(cands, Candidate{ID: id, Free: free})
	}
	if len(cands) == 0 {
		return fmt.Errorf("%w: %s (%s)", ErrNoCandidates, nf.ID, nf.FunctionalType)
	}
	ranked := m.opts.Rank(nf, cands)
	var lastErr error
	for ci, hostID := range ranked {
		if ci > 0 {
			if st.budget <= 0 {
				return fmt.Errorf("%w: while placing %s", ErrExhausted, nf.ID)
			}
			st.budget--
			st.backtracks++
		}
		rem, ok := st.free[hostID].Sub(nf.Demand)
		if !ok {
			continue
		}
		prev := st.free[hostID]
		st.free[hostID] = rem
		st.host[nf.ID] = hostID
		if err := cont(); err == nil {
			return nil
		} else {
			lastErr = err
		}
		delete(st.host, nf.ID)
		st.free[hostID] = prev
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: %s", ErrNoCandidates, nf.ID)
	}
	return lastErr
}

// placeIsolated homes NFs that no hop references (rare but legal).
func (m *Mapper) placeIsolated(st *state) error {
	for _, id := range st.req.NFIDs() {
		if _, ok := st.host[id]; ok {
			continue
		}
		nf := st.req.NFs.Get(id)
		if nf.Host != "" {
			st.host[id] = nf.Host // pre-pinned by the request
			continue
		}
		err := m.branchHosts(st, nf, nil, func() error { return nil })
		if err != nil {
			return err
		}
	}
	return nil
}

// locate resolves a request node to a substrate topo node. SAPs map to
// themselves (they exist in the substrate); NFs map to their chosen host.
func (m *Mapper) locate(st *state, node nffg.ID) (nffg.ID, bool) {
	if _, ok := st.req.SAPs.Lookup(node); ok {
		return node, true
	}
	if nf, ok := st.req.NFs.Lookup(node); ok {
		if h, placed := st.host[node]; placed {
			return h, true
		}
		if nf.Host != "" { // pinned
			st.host[node] = nf.Host
			return nf.Host, true
		}
		return "", false
	}
	// Infra endpoint inside a request (unusual): maps to itself.
	return node, true
}

// orderHops sorts the request hops so every hop's source is locatable when
// processed: SAP-rooted chains come out in traversal order.
func orderHops(req *nffg.NFFG) ([]*nffg.SGHop, error) {
	remaining := slices.AppendSeq(make([]*nffg.SGHop, 0, req.NumHops()), req.Hops())
	located := map[nffg.ID]bool{}
	for id := range req.SAPs.All() {
		located[id] = true
	}
	for id := range req.Infras.All() {
		located[id] = true
	}
	for id, nf := range req.NFs.All() {
		if nf.Host != "" {
			located[id] = true
		}
	}
	var out []*nffg.SGHop
	for len(remaining) > 0 {
		progress := false
		for i, h := range remaining {
			if located[h.SrcNode] {
				out = append(out, h)
				located[h.DstNode] = true
				remaining = append(remaining[:i], remaining[i+1:]...)
				progress = true
				break
			}
		}
		if !progress {
			// Cycle or NF-rooted chain: emit the first hop as-is; place()
			// handles unplaced sources.
			out = append(out, remaining[0])
			located[remaining[0].SrcNode] = true
			located[remaining[0].DstNode] = true
			remaining = remaining[1:]
		}
	}
	return out, nil
}
