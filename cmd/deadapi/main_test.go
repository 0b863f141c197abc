package main

import (
	"slices"
	"testing"
)

func TestFindReportsDeadAndTestOnly(t *testing.T) {
	dead, err := find("testdata/mod", map[string]string{"lib.Kept": "fixture"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.key)
	}
	if want := []string{"lib.Dead", "lib.TestOnly"}; !slices.Equal(got, want) {
		t.Fatalf("reported %v, want %v", got, want)
	}
}

func TestAllowlistGivesReasons(t *testing.T) {
	for key, reason := range allowlist {
		if reason == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
	}
}
