package journal

import (
	"bytes"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
)

// FuzzDecodeRecords hammers the WAL decoder with arbitrary bytes: whatever a
// crash (or disk corruption) leaves in a segment, DecodeRecords must return a
// decodable prefix and an error — never panic, never claim bytes beyond the
// input, and the clean prefix must itself re-decode to the same records.
func FuzzDecodeRecords(f *testing.F) {
	// Seeds: a clean two-record log, its torn variants, and header edge cases.
	a, err := encodeRecord(Record{Kind: KindAttach, Shard: "dom1", Gen: 1, Epoch: 1,
		Attach: &AttachRecord{Child: "dom1", DovID: "mdo-dov", View: nffg.New("dom1")}})
	if err != nil {
		f.Fatal(err)
	}
	b, err := encodeRecord(Record{Kind: KindRelease, Shard: "dom1", Gen: 2, Epoch: 2,
		Release: &ReleaseRecord{ServiceIDs: []string{"svc1"}}})
	if err != nil {
		f.Fatal(err)
	}
	clean := append(append([]byte(nil), a...), b...)
	f.Add(clean)
	f.Add(clean[:len(clean)-3])                           // torn tail
	f.Add(clean[:frameHeaderSize-1])                      // torn header
	f.Add([]byte("UJR1"))                                 // magic only
	f.Add([]byte("UJR1\x00\x00\x00\x00\x00\x00\x00\x00")) // zero-length frame
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n, _ := DecodeRecords(data)
		if n < 0 || n > len(data) {
			t.Fatalf("clean prefix %d out of bounds (len %d)", n, len(data))
		}
		// The reported clean prefix must be exactly re-decodable: same record
		// count, no error. This is what truncate-on-open relies on.
		again, m, err := DecodeRecords(data[:n])
		if err != nil || m != n || len(again) != len(recs) {
			t.Fatalf("clean prefix not stable: n=%d m=%d err=%v recs=%d again=%d",
				n, m, err, len(recs), len(again))
		}
	})
}
