package journal

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/obs"
	"github.com/unify-repro/escape/internal/unify"
)

// Options tunes the durability/overhead trade-off of a Store.
type Options struct {
	// SyncInterval is the cadence of the background fsync loop. Appends
	// themselves are a single unbuffered write(2) — they survive a process
	// kill as soon as they return — so the interval only bounds data loss on
	// a machine crash. 0 means the 25ms default; negative disables the loop.
	SyncInterval time.Duration
	// SyncEachRecord fsyncs after every append (strict mode). Expensive;
	// the default relies on the background loop.
	SyncEachRecord bool
	// JobLogMaxBytes is the size past which the queue's WAL is eligible for
	// compaction (see CompactJobs). 0 means 4 MiB.
	JobLogMaxBytes int64
}

const (
	defaultSyncInterval   = 25 * time.Millisecond
	defaultJobLogMaxBytes = 4 << 20
)

// Stats is a snapshot of the Store's cumulative counters, exported at
// /metrics as unify_journal.
type Stats struct {
	Appends      uint64 `json:"appends"`
	AppendErrors uint64 `json:"append_errors"`
	BytesWritten uint64 `json:"bytes_written"`
	Syncs        uint64 `json:"syncs"`
	SyncErrors   uint64 `json:"sync_errors"`
	Checkpoints  uint64 `json:"checkpoints"`
	CheckpointE  uint64 `json:"checkpoint_errors"`
	Compactions  uint64 `json:"compactions"`
}

// ShardSnapshot is one shard's contribution to a checkpoint: the sealed
// graph, its generation, which child domains export into it, and the
// services homed on it. Produced by core.(*ResourceOrchestrator).ShardSnapshots.
type ShardSnapshot struct {
	Key         string               `json:"key"`
	Gen         uint64               `json:"gen"`
	Epoch       uint64               `json:"epoch"`
	Graph       *nffg.NFFG           `json:"graph"`
	ChildInfras map[string][]nffg.ID `json:"child_infras,omitempty"`
	Services    []ServiceCheckpoint  `json:"services,omitempty"`
}

// ServiceCheckpoint is the durable metadata of one service: enough to
// restore its reservations, release its resources on removal, and answer
// Services/Remove after a restart. Checkpoints are the durable service
// store; WAL records are deltas against them.
type ServiceCheckpoint struct {
	ServiceID string              `json:"service_id"`
	Mapping   *embed.Mapping      `json:"mapping"`
	Touched   []string            `json:"touched"`
	Home      string              `json:"home"`
	Children  map[string][]string `json:"children,omitempty"`
	Receipt   *unify.Receipt      `json:"receipt,omitempty"`
	Deployed  bool                `json:"deployed"`
}

// Store is an open journal directory accepting appends. It implements the
// write hooks core and admission call on their commit paths.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex // guards shards map, jobs segment swap, lifecycle
	shards map[string]*shardLog
	jobs   *shardLog
	closed bool

	stopSync chan struct{}
	syncDone chan struct{}
	stopCkpt chan struct{}
	ckptDone chan struct{}
	ckptOnce sync.Once

	histAppend     obs.Histogram
	histFsync      obs.Histogram
	histCheckpoint obs.Histogram

	appends, appendErrs, bytes     atomic.Uint64
	syncs, syncErrs                atomic.Uint64
	checkpoints, ckptErrs, compact atomic.Uint64
}

// Open opens (or initializes) a journal data directory for appending. Torn
// tails left by a previous crash are truncated from the newest segment of
// every log so new appends extend an intact prefix. Call Recover first to
// read the state the directory holds.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SyncInterval == 0 {
		opts.SyncInterval = defaultSyncInterval
	}
	if opts.JobLogMaxBytes == 0 {
		opts.JobLogMaxBytes = defaultJobLogMaxBytes
	}
	for _, sub := range []string{shardsDir(dir), jobsDir(dir)} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		shards:   map[string]*shardLog{},
		stopSync: make(chan struct{}),
		syncDone: make(chan struct{}),
	}
	// Open every existing shard log now (truncating torn tails); new shards
	// appear lazily on first append.
	ents, err := os.ReadDir(shardsDir(dir))
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		key := decodeShardKey(e.Name())
		sl, err := openShardLog(filepath.Join(shardsDir(dir), e.Name()))
		if err != nil {
			return nil, fmt.Errorf("journal: shard %s: %w", key, err)
		}
		s.shards[key] = sl
	}
	if s.jobs, err = openShardLog(jobsDir(dir)); err != nil {
		return nil, fmt.Errorf("journal: jobs log: %w", err)
	}
	go s.syncLoop()
	return s, nil
}

func shardsDir(dir string) string { return filepath.Join(dir, "shards") }
func jobsDir(dir string) string   { return filepath.Join(dir, "jobs") }

func (s *Store) shardLogFor(key string) (*shardLog, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("journal: store closed")
	}
	if sl, ok := s.shards[key]; ok {
		return sl, nil
	}
	sl, err := openShardLog(filepath.Join(shardsDir(s.dir), encodeShardKey(key)))
	if err != nil {
		return nil, err
	}
	s.shards[key] = sl
	return sl, nil
}

func (s *Store) appendRecord(sl *shardLog, rec Record) error {
	start := time.Now()
	frame, err := EncodeRecord(rec)
	if err != nil {
		s.appendErrs.Add(1)
		return err
	}
	// Hold the segment-roll lock across the append so a concurrent
	// checkpoint roll cannot close the segment out from under us; which
	// side of a roll the record lands on is then well defined.
	sl.mu.Lock()
	w := sl.wal
	err = w.append(frame)
	sl.mu.Unlock()
	if err != nil {
		s.appendErrs.Add(1)
		return err
	}
	sl.bytes.Add(uint64(len(frame)))
	s.appends.Add(1)
	s.bytes.Add(uint64(len(frame)))
	if s.opts.SyncEachRecord {
		if err := w.sync(); err != nil {
			s.syncErrs.Add(1)
			return err
		}
		s.syncs.Add(1)
	}
	s.histAppend.Observe(time.Since(start))
	return nil
}

// LogAttach journals a child view merge. Called with the target shard's lock
// held, immediately after the generation bump, so per-shard record order
// matches commit order.
func (s *Store) LogAttach(shard string, gen, epoch uint64, child, dovID string, view *nffg.NFFG) error {
	sl, err := s.shardLogFor(shard)
	if err != nil {
		return err
	}
	return s.appendRecord(sl, Record{
		Kind: KindAttach, Shard: shard, Gen: gen, Epoch: epoch,
		Attach: &AttachRecord{Child: child, DovID: dovID, View: view},
	})
}

// LogCommit journals one shard's share of a batch commit. Called with the
// shard's lock held; multi-shard commits call it once per touched shard with
// the same epoch.
func (s *Store) LogCommit(shard string, gen, epoch uint64, svcs []ServiceCommit) error {
	sl, err := s.shardLogFor(shard)
	if err != nil {
		return err
	}
	return s.appendRecord(sl, Record{
		Kind: KindCommit, Shard: shard, Gen: gen, Epoch: epoch,
		Commit: &CommitRecord{Services: svcs},
	})
}

// LogRelease journals the return of services' resources to one shard.
func (s *Store) LogRelease(shard string, gen, epoch uint64, serviceIDs []string) error {
	sl, err := s.shardLogFor(shard)
	if err != nil {
		return err
	}
	return s.appendRecord(sl, Record{
		Kind: KindRelease, Shard: shard, Gen: gen, Epoch: epoch,
		Release: &ReleaseRecord{ServiceIDs: serviceIDs},
	})
}

// LogDetach journals a child's runtime departure. Called with the shard's
// lock held after the final generation bump, so the record orders after
// every commit the shard ever served.
func (s *Store) LogDetach(shard string, gen, epoch uint64, child string, drop bool, serviceIDs []string) error {
	sl, err := s.shardLogFor(shard)
	if err != nil {
		return err
	}
	return s.appendRecord(sl, Record{
		Kind: KindDetach, Shard: shard, Gen: gen, Epoch: epoch,
		Detach: &DetachRecord{Child: child, Drop: drop, ServiceIDs: serviceIDs},
	})
}

// LogDeployed journals a service's final metadata on its home shard. Epoch
// orders the record after the service's commit during replay; there is no
// generation bump.
func (s *Store) LogDeployed(shard string, epoch uint64, rec DeployedRecord) error {
	sl, err := s.shardLogFor(shard)
	if err != nil {
		return err
	}
	return s.appendRecord(sl, Record{Kind: KindDeployed, Shard: shard, Epoch: epoch, Deployed: &rec})
}

// LogJob journals a job admission (State "queued", Request attached).
func (s *Store) LogJob(rec JobRecord) error {
	s.mu.Lock()
	jobs := s.jobs
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("journal: store closed")
	}
	return s.appendRecord(jobs, Record{Kind: KindJob, Job: &rec})
}

// LogJobDone journals a job reaching a terminal state.
func (s *Store) LogJobDone(rec JobRecord) error {
	rec.Request = nil
	s.mu.Lock()
	jobs := s.jobs
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("journal: store closed")
	}
	return s.appendRecord(jobs, Record{Kind: KindJobDone, Job: &rec})
}

// JobsLogSize reports the byte size of the queue WAL's active segment, for
// the caller's compaction policy.
func (s *Store) JobsLogSize() int64 {
	s.mu.Lock()
	jobs := s.jobs
	s.mu.Unlock()
	if jobs == nil {
		return 0
	}
	jobs.mu.Lock()
	w := jobs.wal
	jobs.mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// JobLogMaxBytes returns the configured compaction threshold.
func (s *Store) JobLogMaxBytes() int64 { return s.opts.JobLogMaxBytes }

// CompactJobs rewrites the queue WAL to contain exactly the given (open)
// job records, dropping terminal history. The caller must guarantee no
// concurrent LogJob/LogJobDone appends (the admission queue calls this under
// its own mutex; recovery calls it before the queue starts).
func (s *Store) CompactJobs(open []JobRecord) error {
	s.mu.Lock()
	jobs := s.jobs
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("journal: store closed")
	}
	sealed, err := jobs.roll()
	if err != nil {
		return err
	}
	for _, rec := range open {
		if err := s.appendRecord(jobs, Record{Kind: KindJob, Job: &rec}); err != nil {
			return err
		}
	}
	if err := jobs.wal.sync(); err != nil {
		s.syncErrs.Add(1)
		return err
	}
	s.syncs.Add(1)
	s.compact.Add(1)
	return jobs.dropSegmentsBefore(sealed + 1)
}

// Checkpoint writes one durable snapshot per shard and prunes the log: for
// each shard it first rolls the WAL to a fresh segment, then writes the
// snapshot (tmp + fsync + rename), then deletes the older segments and
// checkpoints. Rolling BEFORE the snapshot is what makes pruning safe:
// generations are monotonic, so every record in a sealed segment is ≤ the
// snapshot's generation and therefore already contained in it.
//
// The snaps argument must be read AFTER the roll to uphold that invariant,
// so Checkpoint takes a source function rather than a value.
func (s *Store) Checkpoint(source func() []ShardSnapshot) error {
	start := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("journal: store closed")
	}
	s.mu.Unlock()

	// Roll every known shard's segment first. Shards that appear between the
	// roll and the snapshot read simply keep their records in the live
	// segment — replay handles records already covered by a checkpoint via
	// the per-shard generation.
	sealedSeg := map[string]int{}
	s.mu.Lock()
	logs := make(map[string]*shardLog, len(s.shards))
	for k, sl := range s.shards {
		logs[k] = sl
	}
	s.mu.Unlock()
	for key, sl := range logs {
		sealed, err := sl.roll()
		if err != nil {
			s.ckptErrs.Add(1)
			return fmt.Errorf("journal: roll shard %s: %w", key, err)
		}
		sealedSeg[key] = sealed
	}

	snaps := source()
	for _, snap := range snaps {
		if err := s.writeCheckpoint(snap); err != nil {
			s.ckptErrs.Add(1)
			return err
		}
		if sealed, ok := sealedSeg[snap.Key]; ok {
			sl := logs[snap.Key]
			if err := sl.dropSegmentsBefore(sealed + 1); err != nil {
				s.ckptErrs.Add(1)
				return err
			}
		}
		if err := dropCheckpointsBefore(filepath.Join(shardsDir(s.dir), encodeShardKey(snap.Key)), snap.Gen); err != nil {
			s.ckptErrs.Add(1)
			return err
		}
	}
	s.checkpoints.Add(1)
	s.histCheckpoint.Observe(time.Since(start))
	return nil
}

func (s *Store) writeCheckpoint(snap ShardSnapshot) error {
	dir := filepath.Join(shardsDir(s.dir), encodeShardKey(snap.Key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := ckptPath(dir, snap.Gen)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(snap); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: encode checkpoint %s: %w", snap.Key, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// StartCheckpoints runs Checkpoint(source) every interval until Close.
func (s *Store) StartCheckpoints(interval time.Duration, source func() []ShardSnapshot) {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	s.ckptOnce.Do(func() {
		s.stopCkpt = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go func() {
			defer close(s.ckptDone)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := s.Checkpoint(source); err != nil {
						log.Printf("journal: checkpoint: %v", err)
					}
				case <-s.stopCkpt:
					return
				}
			}
		}()
	})
}

func (s *Store) syncLoop() {
	defer close(s.syncDone)
	if s.opts.SyncInterval < 0 {
		return
	}
	t := time.NewTicker(s.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.syncAll()
		case <-s.stopSync:
			return
		}
	}
}

func (s *Store) syncAll() {
	s.mu.Lock()
	files := make([]*walFile, 0, len(s.shards)+1)
	for _, sl := range s.shards {
		sl.mu.Lock()
		files = append(files, sl.wal)
		sl.mu.Unlock()
	}
	if s.jobs != nil {
		s.jobs.mu.Lock()
		files = append(files, s.jobs.wal)
		s.jobs.mu.Unlock()
	}
	s.mu.Unlock()
	for _, w := range files {
		if !w.dirty.Load() {
			continue
		}
		start := time.Now()
		if err := w.sync(); err != nil {
			s.syncErrs.Add(1)
			log.Printf("journal: fsync %s: %v", w.path, err)
			continue
		}
		s.syncs.Add(1)
		s.histFsync.Observe(time.Since(start))
	}
}

// Sync flushes every log to stable storage now.
func (s *Store) Sync() { s.syncAll() }

// Close stops the background loops, flushes, and closes every log. The
// shutdown ordering contract (see ARCHITECTURE.md, "Durability") is:
// HTTP listener drain → admission queue close → journal Close.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stopCkpt := s.stopCkpt
	ckptDone := s.ckptDone
	s.mu.Unlock()
	if stopCkpt != nil {
		close(stopCkpt)
		<-ckptDone
	}
	close(s.stopSync)
	<-s.syncDone
	var err error
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sl := range s.shards {
		if cerr := sl.wal.close(); err == nil {
			err = cerr
		}
	}
	if s.jobs != nil {
		if cerr := s.jobs.wal.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Appends:      s.appends.Load(),
		AppendErrors: s.appendErrs.Load(),
		BytesWritten: s.bytes.Load(),
		Syncs:        s.syncs.Load(),
		SyncErrors:   s.syncErrs.Load(),
		Checkpoints:  s.checkpoints.Load(),
		CheckpointE:  s.ckptErrs.Load(),
		Compactions:  s.compact.Load(),
	}
}

// StageHistograms exposes the journal's latency distributions alongside the
// pipeline stages on /metrics.
func (s *Store) StageHistograms() map[string]obs.HistogramSnapshot {
	return map[string]obs.HistogramSnapshot{
		"journal_append":     s.histAppend.Snapshot(),
		"journal_fsync":      s.histFsync.Snapshot(),
		"journal_checkpoint": s.histCheckpoint.Snapshot(),
	}
}
