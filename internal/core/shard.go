package core

import (
	"maps"
	"slices"
	"sync"

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

// shardDirectory is the registration-time shard topology, guarded by
// ResourceOrchestrator.mu and rebuilt copy-on-write so planners can read a
// snapshot lock-free.
type shardDirectory struct {
	shards     map[string]*shard
	keys       []string            // sorted shard keys
	childShard map[string]string   // child layer ID -> shard key
	domains    map[string][]string // shard key -> sorted child layer IDs
}

func newShardDirectory() *shardDirectory {
	return &shardDirectory{
		shards:     map[string]*shard{},
		childShard: map[string]string{},
		domains:    map[string][]string{},
	}
}

// clone returns a deep copy of the directory metadata sharing the shard
// structs themselves (which carry their own locks).
func (d *shardDirectory) clone() *shardDirectory {
	c := newShardDirectory()
	for k, s := range d.shards {
		c.shards[k] = s
	}
	c.keys = append([]string(nil), d.keys...)
	for k, v := range d.childShard {
		c.childShard[k] = v
	}
	for k, v := range d.domains {
		c.domains[k] = append([]string(nil), v...)
	}
	return c
}

// without returns a copy of the directory with child unregistered. When
// dropEmpty is set and child was its shard's last tenant, the shard leaves
// the directory too.
func (d *shardDirectory) without(child string, dropEmpty bool) *shardDirectory {
	c := d.clone()
	key := c.childShard[child]
	delete(c.childShard, child)
	c.domains[key] = exclude(c.domains[key], child)
	if dropEmpty && len(c.domains[key]) == 0 {
		delete(c.shards, key)
		delete(c.domains, key)
		c.keys = exclude(c.keys, key)
	}
	return c
}

// ownerWithout returns a copy of an owner map without the infras child
// exported.
func ownerWithout(owner map[nffg.ID]string, child string) map[nffg.ID]string {
	out := maps.Clone(owner)
	maps.DeleteFunc(out, func(_ nffg.ID, c string) bool { return c == child })
	return out
}

// exclude returns s without any element equal to drop (allocating a copy).
func exclude(s []string, drop string) []string {
	out := make([]string, 0, len(s))
	for _, v := range s {
		if v != drop {
			out = append(out, v)
		}
	}
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
// (nil: every shard) and returns them with that directory and its owner map.
// It retries while an attach or detach moves the directory during the wait,
// so the held shards are never a departed shard or a stale key set: a cut
// read under them is wholly before or wholly after every detach, and no
// commit planned on it can land on a shard a detach has dropped.
func (ro *ResourceOrchestrator) lockCurrent(keys []string) (*shardDirectory, map[nffg.ID]string, []*shard) {
	for {
		dir, owner := ro.snapshotDir()
		want := keys
		if want == nil {
			want = dir.keys
		}
		shs := dir.ordered(want)
		lockAll(shs)
		if cur, _ := ro.snapshotDir(); cur == dir {
			return dir, owner, shs
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
