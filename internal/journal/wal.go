package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// walFile is one append-only log segment. Appends are a single write(2) under
// the file mutex: once the syscall returns, the bytes are in the kernel page
// cache and survive a process kill; only a machine crash additionally needs
// the fsync the background sync loop (or SyncEachRecord) provides.
type walFile struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	size  int64
	dirty atomic.Bool
}

func openWAL(path string) (*walFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &walFile{f: f, path: path, size: st.Size()}, nil
}

func (w *walFile) append(frame []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("journal: %s: log closed", w.path)
	}
	n, err := w.f.Write(frame)
	w.size += int64(n)
	if err != nil {
		return fmt.Errorf("journal: append %s: %w", w.path, err)
	}
	w.dirty.Store(true)
	return nil
}

// sync flushes kernel buffers to stable storage if the file has unsynced
// appends.
func (w *walFile) sync() error {
	if !w.dirty.Swap(false) {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	return w.f.Sync()
}

func (w *walFile) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// shardLog is the per-shard WAL: a directory of numbered segments of which
// only the newest takes appends. Checkpointing rolls to a fresh segment
// before snapshotting, so every record in an older segment is covered by the
// checkpoint and the old segments can be deleted.
type shardLog struct {
	dir string

	mu  sync.Mutex // guards segment rolls against each other
	seg int
	wal *walFile

	bytes atomic.Uint64
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".json"
)

func segPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d%s", segPrefix, n, segSuffix))
}

func ckptPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", ckptPrefix, gen, ckptSuffix))
}

// listSegments returns the numbered WAL segments in dir, ascending.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
		if err != nil {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

// latestCheckpoint returns the path and generation of the newest checkpoint
// file in dir, or "" when none exists.
func latestCheckpoint(dir string) (string, uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return "", 0, nil
		}
		return "", 0, err
	}
	var (
		best    string
		bestGen uint64
		found   bool
	)
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		gen, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix), 16, 64)
		if err != nil {
			continue
		}
		if !found || gen > bestGen {
			best, bestGen, found = filepath.Join(dir, name), gen, true
		}
	}
	return best, bestGen, nil
}

// openShardLog opens (or creates) a shard's log directory for appending,
// continuing the newest existing segment. Any torn tail left by a crash is
// truncated away first so post-recovery appends extend an intact prefix —
// otherwise the torn frame would hide everything written after it forever.
func openShardLog(dir string) (*shardLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	seg := 1
	if len(segs) > 0 {
		seg = segs[len(segs)-1]
		if err := truncateTornTail(segPath(dir, seg)); err != nil {
			return nil, err
		}
	}
	w, err := openWAL(segPath(dir, seg))
	if err != nil {
		return nil, err
	}
	return &shardLog{dir: dir, seg: seg, wal: w}, nil
}

// truncateTornTail cuts a segment back to its longest intact record prefix.
func truncateTornTail(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	_, clean, derr := DecodeRecords(data)
	if derr == nil {
		return nil
	}
	return os.Truncate(path, int64(clean))
}

// roll seals the current segment and starts a fresh one, returning the
// number of the sealed segment.
func (sl *shardLog) roll() (int, error) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	old := sl.wal
	next, err := openWAL(segPath(sl.dir, sl.seg+1))
	if err != nil {
		return 0, err
	}
	sealed := sl.seg
	sl.seg++
	sl.wal = next
	if old != nil {
		if err := old.close(); err != nil {
			return sealed, err
		}
	}
	return sealed, nil
}

// dropSegmentsBefore deletes all segments numbered < keep.
func (sl *shardLog) dropSegmentsBefore(keep int) error {
	segs, err := listSegments(sl.dir)
	if err != nil {
		return err
	}
	for _, n := range segs {
		if n < keep {
			if err := os.Remove(segPath(sl.dir, n)); err != nil {
				return err
			}
		}
	}
	return nil
}

// dropCheckpointsBefore deletes all checkpoint files with generation < gen.
func dropCheckpointsBefore(dir string, gen uint64) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		g, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix), 16, 64)
		if err != nil || g >= gen {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// encodeShardKey maps a shard key to a filesystem-safe directory name.
// Shard keys are child-domain IDs (or "global"), which are normally safe
// already; percent-escape anything that is not.
func encodeShardKey(key string) string {
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02x", c)
		}
	}
	if b.Len() == 0 {
		return "%00"
	}
	out := b.String()
	// "." and ".." are themselves path components: escape the dots so a
	// hostile shard key cannot point the log outside its directory.
	if out == "." || out == ".." {
		out = strings.ReplaceAll(out, ".", "%2e")
	}
	return out
}

func decodeShardKey(name string) string {
	if name == "%00" {
		return ""
	}
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		if name[i] == '%' && i+2 < len(name) {
			if v, err := strconv.ParseUint(name[i+1:i+3], 16, 8); err == nil {
				b.WriteByte(byte(v))
				i += 2
				continue
			}
		}
		b.WriteByte(name[i])
	}
	return b.String()
}
