// Package journal is the durability layer of the control plane: a per-shard
// write-ahead log of committed mappings and admitted jobs, plus periodic
// sealed-snapshot checkpoints of each shard graph. The sharded commit path
// already assigns every mutation a per-shard generation and a global epoch,
// so journal appends ride the existing shard locks — disjoint commits hit
// disjoint log files and never serialize against each other.
//
// On disk a data directory looks like
//
//	<dir>/shards/<key>/wal-000001.log        framed records, append-only
//	<dir>/shards/<key>/checkpoint-<gen>.json shard graph + homed services
//	<dir>/jobs/wal-000001.log                admission queue records
//
// Each log record is framed as
//
//	magic "UJR1" | uint32 LE payload length | uint32 LE CRC32-IEEE | JSON payload
//
// so a torn tail (the frame a crash interrupted mid-write) is detected by
// length or checksum and recovery stops cleanly at the last intact record
// instead of replaying garbage.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// Kind discriminates journal records.
type Kind string

const (
	// KindAttach: a child domain's exported view was merged into a shard
	// (bumps the shard generation, so replay must re-merge it).
	KindAttach Kind = "attach"
	// KindCommit: one batch commit on one shard — every mapping the
	// generation bump covered, duplicated into each touched shard's log so
	// every log is self-contained.
	KindCommit Kind = "commit"
	// KindRelease: service resources returned to a shard (removal or
	// deploy-failure rollback).
	KindRelease Kind = "release"
	// KindDeployed: metadata-only home-shard record — southbound fan-out for
	// a service finished and its receipt/children are final. No gen bump.
	KindDeployed Kind = "deployed"
	// KindDetach: a child domain was detached at runtime together with its
	// shard, so replay discards the shard and every service the record lists
	// as displaced.
	KindDetach Kind = "detach"
	// KindJob / KindJobDone: admission queue WAL — a job was admitted /
	// reached a terminal state.
	KindJob     Kind = "job"
	KindJobDone Kind = "jobdone"
)

// Record is one journal entry. Shard/Gen/Epoch identify where the record
// sits in the commit order: records within one shard log are strictly
// gen- and epoch-ascending (both are assigned under that shard's lock), and
// records of one multi-shard commit share an epoch across logs.
type Record struct {
	Kind  Kind   `json:"kind"`
	Shard string `json:"shard,omitempty"`
	Gen   uint64 `json:"gen,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`

	Attach   *AttachRecord   `json:"attach,omitempty"`
	Commit   *CommitRecord   `json:"commit,omitempty"`
	Release  *ReleaseRecord  `json:"release,omitempty"`
	Deployed *DeployedRecord `json:"deployed,omitempty"`
	Detach   *DetachRecord   `json:"detach,omitempty"`
	Job      *JobRecord      `json:"job,omitempty"`
}

// AttachRecord carries the child's qualified exported view so replay can
// re-merge it without the child being reachable.
type AttachRecord struct {
	Child string     `json:"child"`
	DovID string     `json:"dov_id"`
	View  *nffg.NFFG `json:"view"`
}

// ServiceCommit is one service's share of a batch commit: everything needed
// to re-apply (or release) its resources on each touched shard.
type ServiceCommit struct {
	ServiceID string         `json:"service_id"`
	Mapping   *embed.Mapping `json:"mapping"`
	Touched   []string       `json:"touched"`
	Home      string         `json:"home"`
}

// CommitRecord lists every service the shard's generation bump committed —
// one admission batch can commit several mappings under a single bump.
type CommitRecord struct {
	Services []ServiceCommit `json:"services"`
}

// ReleaseRecord lists the services whose resources this shard released.
type ReleaseRecord struct {
	ServiceIDs []string `json:"service_ids"`
}

// DetachRecord marks a child's runtime departure. The child was its shard's
// only tenant, and the shard left the directory with it; ServiceIDs lists the
// displaced services whose table entries replay must discard (their release
// records, if any, land on surviving shards only). Records written while the
// format carried a "drop" field (always true) decode unchanged: the field is
// ignored.
type DetachRecord struct {
	Child      string   `json:"child"`
	ServiceIDs []string `json:"service_ids,omitempty"`
}

// DeployedRecord finalizes a service's metadata after southbound fan-out.
type DeployedRecord struct {
	ServiceID string              `json:"service_id"`
	Children  map[string][]string `json:"children,omitempty"`
	Receipt   *unify.Receipt      `json:"receipt,omitempty"`
}

// JobRecord is the admission queue's WAL entry. Admit records carry the
// request graph and identity; terminal records carry the outcome and a nil
// Request.
type JobRecord struct {
	ID        string     `json:"id"`
	ServiceID string     `json:"service_id"`
	Tenant    string     `json:"tenant,omitempty"`
	Priority  string     `json:"priority,omitempty"`
	TraceID   string     `json:"trace_id,omitempty"`
	State     string     `json:"state"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Finished  time.Time  `json:"finished,omitzero"`
	Request   *nffg.NFFG `json:"request,omitempty"`
}

// Terminal reports whether the record describes a finished job.
func (r JobRecord) Terminal() bool {
	switch r.State {
	case "deployed", "failed", "canceled":
		return true
	}
	return false
}

var frameMagic = [4]byte{'U', 'J', 'R', '1'}

const frameHeaderSize = 4 + 4 + 4 // magic + length + crc

// maxFrameSize bounds a single record payload. Graph checkpoints live in
// separate JSON files, so WAL records stay small; anything past this is a
// corrupt length field, not a real record.
const maxFrameSize = 1 << 28 // 256 MiB

// framePool recycles the buffers appendRecord encodes frames into: a frame
// is dead once its log's write returns. Buffers past maxPooledFrame (a
// record carrying a large graph) are left to the collector.
var framePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledFrame = 64 << 10

// encodeFrame encodes rec into buf as one log frame. The JSON payload —
// the bytes json.Marshal would produce — is encoded once, straight behind
// the reserved header, which is then filled in place.
func encodeFrame(buf *bytes.Buffer, rec Record) error {
	buf.Reset()
	buf.Write(frameMagic[:])
	buf.Write(make([]byte, frameHeaderSize-len(frameMagic)))
	if err := json.NewEncoder(buf).Encode(rec); err != nil {
		return fmt.Errorf("journal: encode %s record: %w", rec.Kind, err)
	}
	buf.Truncate(buf.Len() - 1) // Encode ends the value with a newline
	frame := buf.Bytes()
	payload := frame[frameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:], crc32.ChecksumIEEE(payload))
	return nil
}

// DecodeRecords parses a log image into records. It returns the records of
// the longest intact prefix, the byte length of that prefix, and a non-nil
// error describing the first torn or corrupt frame (nil when the whole image
// decodes). A torn tail — the frame a crash interrupted — is expected and
// reported, never replayed; the decoder never panics on arbitrary input.
func DecodeRecords(data []byte) ([]Record, int, error) {
	var recs []Record
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHeaderSize {
			return recs, off, fmt.Errorf("journal: truncated frame header at offset %d (%d trailing bytes)", off, len(rest))
		}
		if [4]byte(rest[:4]) != frameMagic {
			return recs, off, fmt.Errorf("journal: bad magic at offset %d", off)
		}
		n := binary.LittleEndian.Uint32(rest[4:8])
		if n > maxFrameSize {
			return recs, off, fmt.Errorf("journal: implausible frame length %d at offset %d", n, off)
		}
		if len(rest) < frameHeaderSize+int(n) {
			return recs, off, fmt.Errorf("journal: torn record at offset %d (want %d payload bytes, have %d)", off, n, len(rest)-frameHeaderSize)
		}
		payload := rest[frameHeaderSize : frameHeaderSize+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[8:12]) {
			return recs, off, fmt.Errorf("journal: checksum mismatch at offset %d", off)
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, off, fmt.Errorf("journal: undecodable record at offset %d: %w", off, err)
		}
		recs = append(recs, rec)
		off += frameHeaderSize + int(n)
	}
	return recs, off, nil
}
