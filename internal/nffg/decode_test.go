package nffg

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeReference is the decoder DecodeJSONBytes replaced, kept as the
// oracle: a json.Decoder reading one value into a graph through its
// UnmarshalJSON. trailing reports non-whitespace after the value, which the
// Decoder left unread.
func decodeReference(data []byte) (g *NFFG, trailing bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	g = New("")
	if err := dec.Decode(g); err != nil {
		return nil, false, err
	}
	rest := bytes.TrimSpace(data[dec.InputOffset():])
	return g, len(rest) > 0, nil
}

// fig1Request is the Figure-1 demo request: sap1 -> firewall -> dpi ->
// compress -> sap2, each NF steered to its execution environment.
func fig1Request() *NFFG {
	g := NewBuilder("fig1").
		SAP("sap1").SAP("sap2").
		NF("fig1-fw", "firewall", 2, Resources{CPU: 2, Mem: 1024, Storage: 2}).
		NF("fig1-dpi", "dpi", 2, Resources{CPU: 4, Mem: 4096, Storage: 8}).
		NF("fig1-comp", "compress", 2, Resources{CPU: 2, Mem: 2048, Storage: 4}).
		Chain("fig1", 10, 0, "sap1", "fig1-fw", "fig1-dpi", "fig1-comp", "sap2").
		MustBuild()
	g.NFs.Get("fig1-fw").Host = "bisbis@mininet"
	g.NFs.Get("fig1-dpi").Host = "bisbis@openstack"
	g.NFs.Get("fig1-comp").Host = "bisbis@un"
	return g
}

func encodeJSON(t testing.TB, g *NFFG) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeJSON holds DecodeJSONBytes to the json.Decoder path it
// replaced: it never panics; on an input with nothing after its JSON value
// both accept or both reject, and what both accept encodes to the same
// bytes; an input with data after its value is rejected.
func FuzzDecodeJSON(f *testing.F) {
	fig1 := encodeJSON(f, fig1Request())
	f.Add(fig1)
	f.Add(encodeJSON(f, richGraph(f)))
	f.Add(encodeJSON(f, benchGraph("d0", 8)))
	f.Add(encodeJSON(f, New("empty")))
	f.Add(fig1[:len(fig1)/2])
	f.Add(append(bytes.Clone(fig1), `{"id":"next"}`...))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeJSONBytes(data)
		want, trailing, refErr := decodeReference(data)
		if trailing {
			if err == nil {
				t.Fatalf("accepted data after the JSON value: %q", data)
			}
			return
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoders disagree on %q: DecodeJSONBytes %v, json.Decoder %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if a, b := encodeJSON(t, got), encodeJSON(t, want); !bytes.Equal(a, b) {
			t.Fatalf("decoded graphs differ:\n%s\n%s", a, b)
		}
	})
}
