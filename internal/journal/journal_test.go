package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/nffg"
)

// mkGraph builds a tiny sealed graph for record payloads.
func mkGraph(t testing.TB, id string) *nffg.NFFG {
	t.Helper()
	b := nffg.NewBuilder(id)
	b.BiSBiS(nffg.ID(id+"-n1"), id, 4, nffg.Resources{CPU: 8, Mem: 1024, Storage: 32}, "firewall")
	b.SAP("sapA")
	b.Link("l1", "sapA", "1", nffg.ID(id+"-n1"), "1", 1000, 0.5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// encodeRecord frames rec the way appendRecord does, into a fresh slice.
func encodeRecord(rec Record) ([]byte, error) {
	var buf bytes.Buffer
	err := encodeFrame(&buf, rec)
	return buf.Bytes(), err
}

// A frame encoded in place is byte-identical to the json.Marshal framing it
// replaced, including a payload with characters Marshal escapes for HTML,
// and a pooled buffer that held a longer frame leaves nothing behind.
func TestEncodeFrameMatchesMarshal(t *testing.T) {
	recs := []Record{
		{Kind: KindAttach, Shard: "dom1", Gen: 1, Epoch: 1,
			Attach: &AttachRecord{Child: "dom1", DovID: "mdo-dov", View: mkGraph(t, "dom1")}},
		{Kind: KindRelease, Shard: "<s&1>", Gen: 2, Epoch: 7,
			Release: &ReleaseRecord{ServiceIDs: []string{"svc1", "svc\u2028"}}},
		{Kind: KindJob, Job: &JobRecord{ID: "job-3", ServiceID: "svc3", Tenant: "acme",
			Priority: "high", State: "queued", Submitted: time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)}},
	}
	var buf bytes.Buffer
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
		copy(want, frameMagic[:])
		binary.LittleEndian.PutUint32(want[4:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(want[8:], crc32.ChecksumIEEE(payload))
		want = append(want, payload...)
		if err := encodeFrame(&buf, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s frame differs from json.Marshal framing:\ngot  %q\nwant %q", r.Kind, buf.Bytes(), want)
		}
	}
}

func TestRecordFramingRoundtrip(t *testing.T) {
	recs := []Record{
		{Kind: KindAttach, Shard: "dom1", Gen: 1, Epoch: 1,
			Attach: &AttachRecord{Child: "dom1", DovID: "mdo-dov", View: mkGraph(t, "dom1")}},
		{Kind: KindRelease, Shard: "dom1", Gen: 2, Epoch: 7,
			Release: &ReleaseRecord{ServiceIDs: []string{"svc1", "svc2"}}},
		{Kind: KindJob, Job: &JobRecord{ID: "job-3", ServiceID: "svc3", Tenant: "acme",
			Priority: "high", State: "queued", Submitted: time.Now().UTC()}},
	}
	var buf bytes.Buffer
	for _, r := range recs {
		frame, err := encodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	got, clean, err := DecodeRecords(buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if clean != buf.Len() {
		t.Fatalf("clean prefix %d, want %d", clean, buf.Len())
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	if got[0].Kind != KindAttach || got[0].Attach == nil || got[0].Attach.View == nil {
		t.Fatalf("attach record mangled: %+v", got[0])
	}
	if got[0].Attach.View.ID != "dom1" {
		t.Fatalf("view ID %q, want dom1", got[0].Attach.View.ID)
	}
	if got[1].Release == nil || len(got[1].Release.ServiceIDs) != 2 {
		t.Fatalf("release record mangled: %+v", got[1])
	}
	if got[2].Job == nil || got[2].Job.Tenant != "acme" || got[2].Job.Priority != "high" {
		t.Fatalf("job record mangled: %+v", got[2])
	}
}

// TestDecodeTornTail pins the crash contract: a frame cut anywhere — header,
// payload, even a single trailing byte — yields every record before it and a
// non-nil error, never a panic and never garbage records.
func TestDecodeTornTail(t *testing.T) {
	full, err := encodeRecord(Record{Kind: KindRelease, Shard: "s", Gen: 1, Epoch: 1,
		Release: &ReleaseRecord{ServiceIDs: []string{"svc"}}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		data := append(append([]byte(nil), full...), full[:cut]...)
		recs, clean, derr := DecodeRecords(data)
		if len(recs) != 1 {
			t.Fatalf("cut=%d: got %d records, want 1", cut, len(recs))
		}
		if clean != len(full) {
			t.Fatalf("cut=%d: clean=%d, want %d", cut, clean, len(full))
		}
		if derr == nil {
			t.Fatalf("cut=%d: torn tail decoded without error", cut)
		}
	}
}

// TestDecodeCorruptFrame pins CRC detection: a payload bit-flip stops the
// decode at the corrupt frame with the prior records intact.
func TestDecodeCorruptFrame(t *testing.T) {
	a, _ := encodeRecord(Record{Kind: KindRelease, Shard: "s", Gen: 1, Epoch: 1,
		Release: &ReleaseRecord{ServiceIDs: []string{"first"}}})
	b, _ := encodeRecord(Record{Kind: KindRelease, Shard: "s", Gen: 2, Epoch: 2,
		Release: &ReleaseRecord{ServiceIDs: []string{"second"}}})
	data := append(append([]byte(nil), a...), b...)
	data[len(a)+frameHeaderSize+3] ^= 0xFF // flip a payload byte of the second frame
	recs, clean, err := DecodeRecords(data)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("want checksum error, got %v", err)
	}
	if len(recs) != 1 || clean != len(a) {
		t.Fatalf("got %d records, clean=%d; want 1 record, clean=%d", len(recs), clean, len(a))
	}
}

// TestDecodeBadLength pins the bounds guard: an absurd length field is an
// error, not an allocation of 2^60 bytes.
func TestDecodeBadLength(t *testing.T) {
	frame, _ := encodeRecord(Record{Kind: KindRelease, Shard: "s", Gen: 1, Epoch: 1,
		Release: &ReleaseRecord{ServiceIDs: []string{"x"}}})
	binary.LittleEndian.PutUint32(frame[4:8], 1<<31)
	recs, clean, err := DecodeRecords(frame)
	if err == nil || len(recs) != 0 || clean != 0 {
		t.Fatalf("oversized length decoded: recs=%d clean=%d err=%v", len(recs), clean, err)
	}
}

// TestStoreRoundtrip drives the full store API — attach, commit, release,
// deployed, jobs — closes cleanly, and checks Recover returns exactly the
// surviving state.
func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	view := mkGraph(t, "dom1")
	if err := st.LogAttach("dom1", 1, 1, "dom1", "mdo-dov", view); err != nil {
		t.Fatal(err)
	}
	req := nffg.New("svc1")
	mp := &embed.Mapping{Request: req}
	if err := st.LogCommit("dom1", 2, 2, []ServiceCommit{{ServiceID: "svc1", Mapping: mp, Touched: []string{"dom1"}, Home: "dom1"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.LogDeployed("dom1", 2, DeployedRecord{ServiceID: "svc1", Children: map[string][]string{"dom1": {"svc1#dom1"}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.LogCommit("dom1", 3, 3, []ServiceCommit{{ServiceID: "svc2", Mapping: &embed.Mapping{Request: nffg.New("svc2")}, Touched: []string{"dom1"}, Home: "dom1"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.LogRelease("dom1", 4, 4, []string{"svc2"}); err != nil {
		t.Fatal(err)
	}
	if err := st.LogJob(JobRecord{ID: "job-1", ServiceID: "svc1", Tenant: "t1", State: "queued", Request: req}); err != nil {
		t.Fatal(err)
	}
	st.LogJobDone(JobRecord{ID: "job-1", ServiceID: "svc1", State: "deployed"})
	if err := st.LogJob(JobRecord{ID: "job-2", ServiceID: "svc3", Tenant: "t2", State: "queued", Request: nffg.New("svc3")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	state, info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recovered {
		t.Fatal("recovery found nothing")
	}
	if len(state.Shards) != 1 || state.Shards[0].Key != "dom1" {
		t.Fatalf("shards: %+v", state.Shards)
	}
	if g := state.Shards[0].Graph; g == nil || g.ID != "mdo-dov" {
		t.Fatalf("replayed graph ID: %+v", state.Shards[0].Graph)
	}
	if state.Shards[0].Gen != 4 {
		t.Fatalf("shard gen %d, want 4", state.Shards[0].Gen)
	}
	// svc1 committed and deployed; svc2 committed then released.
	if len(state.Services) != 1 || state.Services[0].ServiceID != "svc1" {
		t.Fatalf("services: %+v", state.Services)
	}
	if !state.Services[0].Deployed || state.Services[0].Children["dom1"] == nil {
		t.Fatalf("svc1 deployed record not applied: %+v", state.Services[0])
	}
	if len(state.Jobs) != 2 {
		t.Fatalf("jobs: %+v", state.Jobs)
	}
	byID := map[string]JobRecord{}
	for _, j := range state.Jobs {
		byID[j.ID] = j
	}
	if byID["job-1"].State != "deployed" {
		t.Fatalf("job-1 state %q, want deployed (terminal record wins)", byID["job-1"].State)
	}
	if byID["job-2"].State != "queued" || byID["job-2"].Request == nil {
		t.Fatalf("job-2 must stay queued with its request: %+v", byID["job-2"])
	}
	if state.Epoch != 4 {
		t.Fatalf("epoch %d, want 4", state.Epoch)
	}
}

// TestStoreTornTailTruncatedOnOpen pins the reopen contract: a torn frame at
// the tail of the newest segment is cut off when the store reopens, so
// post-restart appends are never hidden behind garbage.
func TestStoreTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LogAttach("dom1", 1, 1, "dom1", "mdo-dov", mkGraph(t, "dom1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: garbage tail on the newest segment.
	seg := filepath.Join(dir, "shards", "dom1", "wal-000001.log")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("UJR1\xff\xff")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.LogCommit("dom1", 2, 2, []ServiceCommit{{ServiceID: "svcT", Mapping: &embed.Mapping{Request: nffg.New("svcT")}, Touched: []string{"dom1"}, Home: "dom1"}}); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	state, info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.TornTails != 0 {
		// The torn tail was truncated at Open; Recover must see a clean log.
		t.Fatalf("torn tails after truncate-on-open: %d", info.TornTails)
	}
	if len(state.Shards) != 1 || state.Shards[0].Gen != 2 {
		t.Fatalf("post-truncate append lost: %+v", state.Shards)
	}
}

// TestDetachRecordReplaysAsDrop pins the detach record contract: replay
// drops the shard and the displaced services of every detach record, and a
// record written while the format carried "drop":true decodes unchanged.
func TestDetachRecordReplaysAsDrop(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LogAttach("dom1", 1, 1, "dom1", "mdo-dov", mkGraph(t, "dom1")); err != nil {
		t.Fatal(err)
	}
	if err := st.LogCommit("dom1", 2, 2, []ServiceCommit{{ServiceID: "svcX", Mapping: &embed.Mapping{Request: nffg.New("svcX")}, Touched: []string{"dom1"}, Home: "dom1"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Append the old encoding of the detach record by hand.
	payload := []byte(`{"kind":"detach","shard":"dom1","gen":3,"epoch":3,"detach":{"child":"dom1","drop":true,"service_ids":["svcX"]}}`)
	frame := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	copy(frame, frameMagic[:])
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:], crc32.ChecksumIEEE(payload))
	f, err := os.OpenFile(filepath.Join(dir, "shards", "dom1", "wal-000001.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	state, info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Errors) != 0 {
		t.Fatalf("replay errors: %v", info.Errors)
	}
	if len(state.Shards) != 0 || len(state.Services) != 0 || state.Detached["dom1"] != 3 {
		t.Fatalf("detach not replayed as a drop: shards %+v, services %+v, floors %v", state.Shards, state.Services, state.Detached)
	}
}

// TestCheckpointPrunesSegments pins the checkpoint procedure: records are
// folded into the snapshot, old segments and checkpoints are deleted, and
// recovery from checkpoint + tail replays to the same state.
func TestCheckpointPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := mkGraph(t, "dom1")
	if err := st.LogAttach("dom1", 1, 1, "dom1", "mdo-dov", g); err != nil {
		t.Fatal(err)
	}
	snap := func() []ShardSnapshot {
		return []ShardSnapshot{{Key: "dom1", Gen: 1, Epoch: 1, Graph: g,
			ChildInfras: map[string][]nffg.ID{"dom1": g.InfraIDs()}}}
	}
	if err := st.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(snap); err != nil { // second: prunes the first
		t.Fatal(err)
	}
	// Post-checkpoint commit lands in the live segment.
	if err := st.LogCommit("dom1", 2, 2, []ServiceCommit{{ServiceID: "svcN", Mapping: &embed.Mapping{Request: nffg.New("svcN")}, Touched: []string{"dom1"}, Home: "dom1"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	shardDir := filepath.Join(dir, "shards", "dom1")
	segs, err := listSegments(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("sealed segments not pruned: %v", segs)
	}
	ents, _ := os.ReadDir(shardDir)
	ckpts := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ckptPrefix) {
			ckpts++
		}
	}
	if ckpts != 1 {
		t.Fatalf("stale checkpoints not pruned: %d", ckpts)
	}

	state, info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointsLoaded != 1 {
		t.Fatalf("checkpoints loaded: %d", info.CheckpointsLoaded)
	}
	if len(state.Shards) != 1 || state.Shards[0].Gen != 2 {
		t.Fatalf("checkpoint+tail replay wrong: %+v", state.Shards)
	}
	if len(state.Services) != 1 || state.Services[0].ServiceID != "svcN" {
		t.Fatalf("post-checkpoint commit lost: %+v", state.Services)
	}
}

// TestCompactJobs pins job-log compaction: after CompactJobs(open) only the
// open records survive a recovery.
func TestCompactJobs(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, state := range []string{"deployed", "failed", "queued"} {
		id := []string{"job-1", "job-2", "job-3"}[i]
		if err := st.LogJob(JobRecord{ID: id, ServiceID: "s" + id, State: "queued", Request: nffg.New("s" + id)}); err != nil {
			t.Fatal(err)
		}
		if state != "queued" {
			st.LogJobDone(JobRecord{ID: id, ServiceID: "s" + id, State: state})
		}
	}
	if err := st.CompactJobs([]JobRecord{{ID: "job-3", ServiceID: "sjob-3", State: "queued", Request: nffg.New("sjob-3")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	state, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Jobs) != 1 || state.Jobs[0].ID != "job-3" {
		t.Fatalf("compacted jobs: %+v", state.Jobs)
	}
}

func TestShardKeyEscaping(t *testing.T) {
	for _, key := range []string{"dom1", "a/b", "..", "", "sp ace", "%41", "ütf"} {
		enc := encodeShardKey(key)
		if strings.ContainsAny(enc, "/\\") || enc == "." || enc == ".." || enc == "" {
			t.Fatalf("encoded key %q unsafe: %q", key, enc)
		}
		if dec := decodeShardKey(enc); dec != key {
			t.Fatalf("roundtrip %q -> %q -> %q", key, enc, dec)
		}
	}
}
