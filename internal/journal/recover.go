package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/nffg"
)

// RecoveredShard is one shard's state after checkpoint load + log replay.
type RecoveredShard struct {
	Key         string
	Gen         uint64
	Graph       *nffg.NFFG
	ChildInfras map[string][]nffg.ID
}

// RecoveredState is everything a journal directory holds: per-shard graphs
// with their generations, the surviving services, the admission queue's job
// table, and the highest commit epoch observed.
type RecoveredState struct {
	Shards   []RecoveredShard
	Services []ServiceCheckpoint
	Jobs     []JobRecord
	Epoch    uint64
	// Detached maps shard keys that were dropped by a runtime detach (and not
	// re-attached) to the final generation their log reached, so a later
	// re-attach of the same key can keep generations monotone.
	Detached map[string]uint64
}

// Empty reports whether the directory held no durable state at all.
func (st *RecoveredState) Empty() bool {
	return st == nil || (len(st.Shards) == 0 && len(st.Services) == 0 &&
		len(st.Jobs) == 0 && len(st.Detached) == 0)
}

// Info summarizes a recovery pass for /v1/unify/healthz and operators.
type Info struct {
	Recovered         bool     `json:"recovered"`
	Shards            int      `json:"shards"`
	CheckpointsLoaded int      `json:"checkpoints_loaded"`
	RecordsReplayed   int      `json:"records_replayed"`
	TornTails         int      `json:"torn_tails"`
	ServicesRestored  int      `json:"services_restored"`
	JobsRecovered     int      `json:"jobs_recovered"`
	JobsRequeued      int      `json:"jobs_requeued"`
	DurationSeconds   float64  `json:"duration_seconds"`
	Errors            []string `json:"errors,omitempty"`
}

// replayEvent is one log record annotated with its source shard, merged into
// the global epoch order.
type replayEvent struct {
	shard string
	rec   Record
}

// Recover reads a journal directory back into control-plane state: per shard
// it loads the newest checkpoint and replays the WAL suffix on top (records
// with gen ≤ the checkpoint's are already contained in it and are skipped),
// merging multi-shard commits by their shared epoch. Torn tail records are
// counted and skipped, never applied. Recover is read-only; call Open
// afterwards to resume appending.
func Recover(dir string) (*RecoveredState, *Info, error) {
	start := time.Now()
	info := &Info{}
	st := &RecoveredState{}
	sd := shardsDir(dir)
	ents, err := os.ReadDir(sd)
	if err != nil {
		if os.IsNotExist(err) {
			st.Jobs, err = recoverJobs(dir, info)
			info.DurationSeconds = time.Since(start).Seconds()
			info.Recovered = !st.Empty()
			return st, info, err
		}
		return nil, info, fmt.Errorf("journal: recover: %w", err)
	}

	type shardReplay struct {
		key     string
		cpGen   uint64
		gen     uint64
		graph   *nffg.NFFG
		childI  map[string][]nffg.ID
		dropped bool
	}
	shards := map[string]*shardReplay{}
	services := map[string]*ServiceCheckpoint{}
	var svcOrder []string
	var events []replayEvent

	upsertService := func(sc ServiceCheckpoint) *ServiceCheckpoint {
		if cur, ok := services[sc.ServiceID]; ok {
			return cur
		}
		services[sc.ServiceID] = &sc
		svcOrder = append(svcOrder, sc.ServiceID)
		return &sc
	}

	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		key := decodeShardKey(e.Name())
		sdir := filepath.Join(sd, e.Name())
		sr := &shardReplay{key: key, childI: map[string][]nffg.ID{}}
		shards[key] = sr

		cpath, cpGen, err := latestCheckpoint(sdir)
		if err != nil {
			return nil, info, fmt.Errorf("journal: recover shard %s: %w", key, err)
		}
		if cpath != "" {
			var snap ShardSnapshot
			data, err := os.ReadFile(cpath)
			if err == nil {
				err = json.Unmarshal(data, &snap)
			}
			if err != nil {
				// A checkpoint that does not decode is treated as absent: the
				// WAL segments still present replay from scratch.
				info.Errors = append(info.Errors, fmt.Sprintf("shard %s: checkpoint %s unreadable: %v", key, filepath.Base(cpath), err))
			} else {
				sr.cpGen, sr.gen = cpGen, snap.Gen
				if snap.Graph != nil {
					sr.graph = snap.Graph.Copy()
				}
				for c, infras := range snap.ChildInfras {
					sr.childI[c] = infras
				}
				for _, sc := range snap.Services {
					upsertService(sc)
				}
				if snap.Epoch > st.Epoch {
					st.Epoch = snap.Epoch
				}
				info.CheckpointsLoaded++
			}
		}

		segs, err := listSegments(sdir)
		if err != nil {
			return nil, info, fmt.Errorf("journal: recover shard %s: %w", key, err)
		}
		for i, n := range segs {
			data, err := os.ReadFile(segPath(sdir, n))
			if err != nil {
				return nil, info, fmt.Errorf("journal: recover shard %s: %w", key, err)
			}
			recs, _, derr := DecodeRecords(data)
			if derr != nil {
				info.TornTails++
				if i != len(segs)-1 {
					// Torn records are only expected at the tail of the
					// newest segment; anywhere else is real corruption and
					// everything after the tear in this segment is lost.
					info.Errors = append(info.Errors, fmt.Sprintf("shard %s: segment %d: %v", key, n, derr))
				}
			}
			for _, rec := range recs {
				events = append(events, replayEvent{shard: key, rec: rec})
			}
		}
	}

	// Global replay order: records within one shard log are epoch-ascending,
	// so a stable sort by epoch interleaves the logs into commit order and
	// keeps multi-shard commits (which share an epoch) adjacent. Kinds break
	// epoch ties so a deployed record lands after the commit it annotates.
	kindRank := map[Kind]int{KindAttach: 0, KindCommit: 1, KindRelease: 2, KindDeployed: 3, KindDetach: 4}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].rec.Epoch != events[j].rec.Epoch {
			return events[i].rec.Epoch < events[j].rec.Epoch
		}
		return kindRank[events[i].rec.Kind] < kindRank[events[j].rec.Kind]
	})

	// A multi-shard release writes one record per touched shard, all sharing
	// the release epoch. Every copy needs the service's mapping to subtract
	// its shard's slice of the allocation, so the table entry may only be
	// dropped after the LAST copy — count the copies up front.
	releaseCopies := make(map[string]int)
	releaseKey := func(epoch uint64, id string) string {
		return fmt.Sprintf("%d#%s", epoch, id)
	}
	for _, ev := range events {
		if ev.rec.Kind == KindRelease && ev.rec.Release != nil {
			for _, id := range ev.rec.Release.ServiceIDs {
				releaseCopies[releaseKey(ev.rec.Epoch, id)]++
			}
		}
	}

	// refGraph merges the current replayed graphs of a mapping's touched
	// shards: ApplyScoped only reads topology (hop segments, ports) from the
	// reference, so partially applied resources in it are harmless.
	refGraph := func(touched []string) (*nffg.NFFG, error) {
		ref := nffg.New("replay-ref")
		for _, k := range touched {
			sr, ok := shards[k]
			if !ok || sr.graph == nil {
				return nil, fmt.Errorf("touched shard %s has no replayed graph", k)
			}
			if err := ref.Merge(sr.graph); err != nil {
				return nil, err
			}
		}
		return ref, nil
	}

	for _, ev := range events {
		sr := shards[ev.shard]
		rec := ev.rec
		switch rec.Kind {
		case KindAttach:
			if rec.Gen <= sr.cpGen || rec.Attach == nil {
				break
			}
			if sr.graph == nil {
				id := rec.Attach.DovID
				if id == "" {
					id = "recovered-dov"
				}
				sr.graph = nffg.New(id)
			}
			if rec.Attach.View != nil {
				if err := sr.graph.Merge(rec.Attach.View); err != nil {
					info.Errors = append(info.Errors, fmt.Sprintf("shard %s: replay attach %s: %v", ev.shard, rec.Attach.Child, err))
					break
				}
				sr.childI[rec.Attach.Child] = rec.Attach.View.InfraIDs()
			}
			sr.gen = rec.Gen
			sr.dropped = false
			info.RecordsReplayed++
		case KindCommit:
			if rec.Commit == nil {
				break
			}
			if rec.Gen > sr.cpGen {
				if sr.graph == nil {
					info.Errors = append(info.Errors, fmt.Sprintf("shard %s: commit record before any attach", ev.shard))
					break
				}
				for _, sc := range rec.Commit.Services {
					if err := replayApply(sr.graph, sc, ev.shard, refGraph); err != nil {
						info.Errors = append(info.Errors, fmt.Sprintf("shard %s: replay commit %s: %v", ev.shard, sc.ServiceID, err))
						continue
					}
				}
				sr.gen = rec.Gen
				info.RecordsReplayed++
			}
			// Register the services even when the resources were already in
			// the checkpoint graph — the metadata lives in the service table.
			// upsertService keeps the first registration, so the duplicated
			// copies of a multi-shard commit collapse to one entry.
			for _, sc := range rec.Commit.Services {
				upsertService(ServiceCheckpoint{
					ServiceID: sc.ServiceID,
					Mapping:   sc.Mapping,
					Touched:   sc.Touched,
					Home:      sc.Home,
				})
			}
		case KindRelease:
			if rec.Release == nil {
				break
			}
			if rec.Gen > sr.cpGen && sr.graph != nil {
				for _, id := range rec.Release.ServiceIDs {
					sc, ok := services[id]
					if !ok || sc.Mapping == nil {
						continue
					}
					if err := embed.Release(sr.graph, sc.Mapping); err != nil {
						info.Errors = append(info.Errors, fmt.Sprintf("shard %s: replay release %s: %v", ev.shard, id, err))
					}
				}
				sr.gen = rec.Gen
				info.RecordsReplayed++
			}
			// Drop the service only once every shard's copy of this release
			// has been applied; earlier copies must still find the mapping.
			for _, id := range rec.Release.ServiceIDs {
				k := releaseKey(rec.Epoch, id)
				if releaseCopies[k]--; releaseCopies[k] <= 0 {
					delete(services, id)
				}
			}
		case KindDeployed:
			if rec.Deployed == nil {
				break
			}
			if sc, ok := services[rec.Deployed.ServiceID]; ok {
				sc.Children = rec.Deployed.Children
				sc.Receipt = rec.Deployed.Receipt
				sc.Deployed = true
			}
			info.RecordsReplayed++
		case KindDetach:
			if rec.Detach == nil {
				break
			}
			if rec.Gen > sr.cpGen {
				if rec.Detach.Drop {
					// The shard left the directory wholesale. Forget the graph
					// and reset the checkpoint floor so a later re-attach of
					// the same key replays onto a fresh shard (generations stay
					// monotone across detach/attach cycles, so its records sort
					// after this one).
					sr.graph = nil
					sr.childI = map[string][]nffg.ID{}
					sr.cpGen = 0
					sr.dropped = true
				} else {
					delete(sr.childI, rec.Detach.Child)
				}
				sr.gen = rec.Gen
				info.RecordsReplayed++
			}
			// Displaced services' table entries die with the detach. Their
			// release records (written on surviving shards before the detach
			// epoch) have already been applied by this point in the sort.
			for _, id := range rec.Detach.ServiceIDs {
				delete(services, id)
			}
		}
		if rec.Epoch > st.Epoch {
			st.Epoch = rec.Epoch
		}
	}

	keys := make([]string, 0, len(shards))
	for k := range shards {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sr := shards[k]
		if sr.dropped {
			if st.Detached == nil {
				st.Detached = map[string]uint64{}
			}
			st.Detached[k] = sr.gen
			continue
		}
		if sr.graph == nil && len(sr.childI) == 0 && sr.gen == 0 {
			continue
		}
		st.Shards = append(st.Shards, RecoveredShard{Key: k, Gen: sr.gen, Graph: sr.graph, ChildInfras: sr.childI})
	}
	// svcOrder can mention an ID twice when a service was removed and a new
	// one installed under the same ID; emit each surviving service once.
	emitted := map[string]bool{}
	for _, id := range svcOrder {
		if sc, ok := services[id]; ok && !emitted[id] {
			emitted[id] = true
			st.Services = append(st.Services, *sc)
		}
	}

	st.Jobs, err = recoverJobs(dir, info)
	if err != nil {
		return nil, info, err
	}
	info.Shards = len(st.Shards)
	info.ServicesRestored = len(st.Services)
	info.JobsRecovered = len(st.Jobs)
	info.Recovered = !st.Empty()
	info.DurationSeconds = time.Since(start).Seconds()
	return st, info, nil
}

// replayApply re-applies one service's mapping to one shard graph exactly as
// the original commit did: single-shard mappings via ApplyTo, multi-shard
// ones via ApplyScoped against a merged reference (bookkeeping only on the
// home shard).
func replayApply(g *nffg.NFFG, sc ServiceCommit, shard string, refGraph func([]string) (*nffg.NFFG, error)) error {
	if sc.Mapping == nil {
		return fmt.Errorf("commit record without mapping")
	}
	if len(sc.Touched) <= 1 {
		return embed.ApplyTo(g, sc.Mapping)
	}
	ref, err := refGraph(sc.Touched)
	if err != nil {
		return err
	}
	return embed.ApplyScoped(g, ref, sc.Mapping, shard == sc.Home)
}

// recoverJobs folds the queue WAL into the final per-job state: the admit
// record carries identity + request, a later terminal record overrides the
// state and drops the graph.
func recoverJobs(dir string, info *Info) ([]JobRecord, error) {
	jd := jobsDir(dir)
	segs, err := listSegments(jd)
	if err != nil {
		return nil, fmt.Errorf("journal: recover jobs: %w", err)
	}
	jobs := map[string]*JobRecord{}
	var order []string
	for i, n := range segs {
		data, err := os.ReadFile(segPath(jd, n))
		if err != nil {
			return nil, fmt.Errorf("journal: recover jobs: %w", err)
		}
		recs, _, derr := DecodeRecords(data)
		if derr != nil {
			info.TornTails++
			if i != len(segs)-1 {
				info.Errors = append(info.Errors, fmt.Sprintf("jobs: segment %d: %v", n, derr))
			}
		}
		for _, rec := range recs {
			if rec.Job == nil {
				continue
			}
			switch rec.Kind {
			case KindJob:
				if _, ok := jobs[rec.Job.ID]; !ok {
					r := *rec.Job
					jobs[rec.Job.ID] = &r
					order = append(order, rec.Job.ID)
				}
			case KindJobDone:
				if j, ok := jobs[rec.Job.ID]; ok {
					j.State = rec.Job.State
					j.Error = rec.Job.Error
					j.Finished = rec.Job.Finished
					j.Request = nil
				} else {
					r := *rec.Job
					jobs[rec.Job.ID] = &r
					order = append(order, rec.Job.ID)
				}
			}
		}
	}
	out := make([]JobRecord, 0, len(order))
	for _, id := range order {
		out = append(out, *jobs[id])
	}
	return out, nil
}
