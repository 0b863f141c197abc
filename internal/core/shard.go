package core

import (
	"maps"
	"slices"
	"sync"

	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// ShardKeyFunc maps an attached child domain to the DoV shard that holds its
// exported view. Domains sharing a key share one copy-on-write graph and one
// generation counter; installs whose shard sets are disjoint commit fully
// concurrently.
type ShardKeyFunc func(domainID string) string

// ShardPerDomain gives every child domain its own DoV shard — the default:
// the paper's premise is that most requests touch few domains, so per-domain
// shards make disjoint installs contention-free.
func ShardPerDomain(domainID string) string { return domainID }

// SingleShard collapses the DoV into one shard — the degenerate configuration
// equivalent to the pre-sharding single generation counter (useful as a
// baseline and for tiny deployments).
func SingleShard(string) string { return "dov" }

// shard is one partition of the DoV: an immutable copy-on-write graph guarded
// by its own mutex and generation counter. All counter fields are guarded by
// mu; the graph pointer is swapped wholesale on commit.
type shard struct {
	key string

	mu          sync.Mutex
	dov         *nffg.NFFG // immutable snapshot; replaced wholesale on commit
	gen         uint64     // bumped on every committed change of this shard
	commits     uint64     // graph swaps (attach merges, install commits, releases)
	conflicts   uint64     // commit validations lost on this shard's generation
	multi       uint64     // commits that spanned this shard plus at least one more
	journalRecs uint64     // write-ahead records appended under this shard's lock
	restoredGen uint64     // generation recovered from the journal at startup
}

// ShardStats is one DoV shard's observable state: its generation, how often
// it committed, how often optimistic commits lost on it, and how many of its
// commits were multi-shard (ordered two-phase) commits. Gen == Commits is an
// invariant: every generation bump is a counted commit.
type ShardStats struct {
	// Shard is the shard key (the domain ID under ShardPerDomain).
	Shard string `json:"shard"`
	// Domains lists the child layers whose views this shard holds.
	Domains []string `json:"domains"`
	// Gen is the shard's generation (committed changes since start).
	Gen uint64 `json:"gen"`
	// Commits counts graph swaps: attach merges, install commits, releases.
	Commits uint64 `json:"commits"`
	// Conflicts counts optimistic commits lost to this shard's generation.
	Conflicts uint64 `json:"conflicts"`
	// MultiShardCommits counts commits that locked this shard together with
	// at least one sibling (the ordered two-phase path).
	MultiShardCommits uint64 `json:"multi_shard_commits"`
	// JournalRecords counts write-ahead records appended to this shard's log
	// under its lock (attach/commit/release/detach; zero when journaling is
	// off).
	JournalRecords uint64 `json:"journal_records"`
	// RestoredGen is the generation the shard was recovered at (zero for
	// shards born in this process): Gen - RestoredGen commits happened since
	// the last restart.
	RestoredGen uint64 `json:"restored_gen"`
}

// member is one attached child domain: its handle, its shard key and the
// infra nodes its view exported into that shard. A restored child's handle is
// nil until Reattach.
type member struct {
	id     string
	d      domain.Domain
	key    string
	infras []nffg.ID // sorted, as InfraIDs and the journal return them
}

// shardDirectory is the orchestrator's one record of membership: which child
// domains are attached, which shard holds each one's view, and which nodes
// each shard answers for. A directory is immutable. with and without build
// every next one and derive the rest of it, writers swap ro.dir under ro.mu,
// and readers load it lock-free.
type shardDirectory struct {
	shards   map[string]*shard
	keys     []string                    // sorted shard keys
	children map[string]member           // child ID -> member
	nodes    map[string]map[nffg.ID]bool // shard key -> nodes it answers for, true for SAPs (see shardContribution)
	// floors holds the final generation of every shard a detach dropped, so
	// a re-attach of the key resumes counting instead of restarting at zero:
	// per-shard journal records must stay gen-monotone (see journal replay).
	floors map[string]uint64
	// departed tombstones nodes whose owning child was detached (node ->
	// former child ID), so installs referencing them fail with a typed
	// ErrDomainUnavailable instead of an opaque plan rejection.
	departed map[nffg.ID]string

	// Derived from the fields above by derive.
	domains map[string][]string  // shard key -> sorted child IDs
	owner   map[nffg.ID]string   // DoV infra -> child ID that exported it
	index   map[nffg.ID][]string // node -> sorted shard keys (what ShardSet reads)
	borders map[string][]string  // shard key -> sorted keys of the shards it shares a SAP with
}

func newShardDirectory() *shardDirectory { return (&shardDirectory{}).fork() }

// fork copies the directory's own fields into a successor for with or
// without to edit; the shard structs (which carry their own locks) are shared.
func (d *shardDirectory) fork() *shardDirectory {
	return &shardDirectory{
		shards:   cloneMap(d.shards),
		keys:     slices.Clone(d.keys),
		children: cloneMap(d.children),
		nodes:    cloneMap(d.nodes),
		floors:   cloneMap(d.floors),
		departed: cloneMap(d.departed),
	}
}

// with returns the next directory: sh is in it and every member of children
// is attached to it. nodes, when non-nil, becomes the set of nodes sh answers
// for. A new key spends its generation floor: the caller seeded sh from it.
func (d *shardDirectory) with(sh *shard, nodes map[nffg.ID]bool, children ...member) *shardDirectory {
	c := d.fork()
	if _, ok := c.shards[sh.key]; !ok {
		c.keys = append(c.keys, sh.key)
		slices.Sort(c.keys)
		delete(c.floors, sh.key)
	}
	c.shards[sh.key] = sh
	if nodes != nil {
		c.nodes[sh.key] = nodes
	}
	for _, m := range children {
		m.key = sh.key
		c.children[m.id] = m
	}
	c.derive()
	return c
}

// without returns the next directory with child detached. When child was its
// shard's last tenant the shard leaves too: its generation becomes the key's
// floor (callers hold its lock), and its nodes no surviving shard answers for
// are tombstoned with child's ID.
func (d *shardDirectory) without(child string) *shardDirectory {
	c := d.fork()
	key := c.children[child].key
	delete(c.children, child)
	var dropped map[nffg.ID]bool
	if len(d.domains[key]) == 1 {
		c.floors[key] = c.shards[key].gen
		dropped = c.nodes[key]
		delete(c.shards, key)
		delete(c.nodes, key)
		c.keys = slices.DeleteFunc(c.keys, func(k string) bool { return k == key })
	}
	c.derive()
	for node := range dropped {
		if len(c.index[node]) == 0 {
			c.departed[node] = child
		}
	}
	return c
}

// derive rebuilds the owner map, the per-shard child lists, the reverse index
// and the border graph from the members and node sets, and lifts the
// tombstones of nodes a shard answers for again.
func (d *shardDirectory) derive() {
	d.domains = map[string][]string{}
	d.owner = map[nffg.ID]string{}
	d.index = map[nffg.ID][]string{}
	d.borders = map[string][]string{}
	for id, m := range d.children {
		d.domains[m.key] = append(d.domains[m.key], id)
		for _, inf := range m.infras {
			d.owner[inf] = id
		}
	}
	for _, ids := range d.domains {
		slices.Sort(ids)
	}
	for _, key := range d.keys { // in key order: every index entry is sorted
		for node, sap := range d.nodes[key] {
			if sap { // a SAP an earlier shard exports too borders the two
				for _, k := range d.index[node] {
					if d.nodes[k][node] {
						d.borders[k] = append(d.borders[k], key)
						d.borders[key] = append(d.borders[key], k)
					}
				}
			}
			d.index[node] = append(d.index[node], key)
		}
	}
	for key, ns := range d.borders { // two shards may share several SAPs
		slices.Sort(ns)
		d.borders[key] = slices.Compact(ns)
	}
	maps.DeleteFunc(d.departed, func(node nffg.ID, _ string) bool { return len(d.index[node]) > 0 })
}

// borderPath returns anchors (sorted, at least two) widened by one shortest
// path over the border graph from the first anchor to each other one: a
// breadth-first search that visits neighbours in key order, so the set is
// deterministic. An anchor the border graph cannot reach adds only itself;
// the plan on the narrowed set then fails and escalates. The result is
// sorted.
func (d *shardDirectory) borderPath(anchors []string) []string {
	parent := map[string]string{anchors[0]: ""}
	missing := len(anchors) - 1
	for queue := anchors[:1:1]; len(queue) > 0 && missing > 0; queue = queue[1:] {
		for _, next := range d.borders[queue[0]] {
			if _, seen := parent[next]; seen {
				continue
			}
			parent[next] = queue[0]
			queue = append(queue, next)
			if _, ok := slices.BinarySearch(anchors, next); ok {
				missing--
			}
		}
	}
	set := slices.Clone(anchors)
	for _, a := range anchors[1:] {
		if _, reached := parent[a]; !reached {
			continue
		}
		for k := parent[a]; k != anchors[0]; k = parent[k] {
			set = append(set, k)
		}
	}
	slices.Sort(set)
	return slices.Compact(set)
}

// cloneMap returns a writable copy of m (never nil).
func cloneMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	maps.Copy(out, m)
	return out
}

// ordered returns the shards for the given keys in key order, once each,
// skipping keys the directory does not know.
func (d *shardDirectory) ordered(keys []string) []*shard {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	out := make([]*shard, 0, len(sorted))
	for _, k := range sorted {
		if s, ok := d.shards[k]; ok {
			out = append(out, s)
		}
	}
	return out
}

// lockAll acquires the shards' mutexes in slice (key) order — the global lock
// order that makes multi-shard commits, snapshots and releases deadlock-free.
// The shards slice must already be key-ordered (see ordered).
func lockAll(shs []*shard) {
	for _, s := range shs {
		s.mu.Lock()
	}
}

func unlockAll(shs []*shard) {
	for i := len(shs) - 1; i >= 0; i-- {
		shs[i].mu.Unlock()
	}
}

// lockCurrent locks, in key order, the current directory's shards for keys
// (nil: every shard) and returns them with that directory. It retries while
// an attach or detach moves the directory during the wait, so the held shards
// are never a departed shard or a stale key set: a cut read under them is
// wholly before or wholly after every detach, and no commit planned on it can
// land on a shard a detach has dropped.
func (ro *ResourceOrchestrator) lockCurrent(keys []string) (*shardDirectory, []*shard) {
	for {
		dir := ro.dir.Load()
		want := keys
		if want == nil {
			want = dir.keys
		}
		shs := dir.ordered(want)
		lockAll(shs)
		if ro.dir.Load() == dir {
			return dir, shs
		}
		unlockAll(shs)
	}
}

// readCut reads the (graph, generation) cut of shards whose locks the caller
// holds.
func readCut(shs []*shard) (graphs []*nffg.NFFG, gens []uint64) {
	graphs = make([]*nffg.NFFG, len(shs))
	gens = make([]uint64, len(shs))
	for i, s := range shs {
		graphs[i] = s.dov
		gens[i] = s.gen
	}
	return graphs, gens
}

// shardGroup is one connected component of overlapping shard sets within a
// batch: the request indices it carries and the union of their shard sets
// (nil when the group is global).
type shardGroup struct {
	idx  []int
	keys []string // nil = all shards
}

// groupByOverlap partitions request indices into connected components of
// overlapping shard sets via unify.GroupShardSets (the one union-find shared
// with the admission queue's lane dispatch). Indices with a nil set ("touches
// everything") fold the whole batch into one global group.
func groupByOverlap(indices []int, sets [][]string) []shardGroup {
	compact := make([][]string, len(indices))
	for j, i := range indices {
		compact[j] = sets[i]
	}
	groups, keys := unify.GroupShardSets(compact)
	out := make([]shardGroup, len(groups))
	for gi, g := range groups {
		for _, j := range g {
			out[gi].idx = append(out[gi].idx, indices[j])
		}
		out[gi].keys = keys[gi]
	}
	return out
}
