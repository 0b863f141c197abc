package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
)

// TestJSONOutputIndented: the wire form is compact, but view -format json
// and watch-view -format json still print the indented rendering people read,
// byte for byte what json.MarshalIndent makes of the graph.
func TestJSONOutputIndented(t *testing.T) {
	g := nffg.NewBuilder("view").
		BiSBiS("n1", "d", 2, nffg.Resources{CPU: 4, Mem: 1024, Storage: 8}, "fw").
		SAP("sap1").
		Link("u", "sap1", "1", "n1", "1", 100, 1).
		MustBuild()
	var out bytes.Buffer
	if err := writeIndented(&out, g); err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want)+"\n" {
		t.Fatalf("unifyctl JSON output:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(out.String(), "\n  \"infras\": [") {
		t.Fatalf("output is not indented:\n%s", out.String())
	}
}
