package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// TestCrashRecoveryAfterDetach pins the journal contract of runtime detach:
// the detach record replays AFTER the displaced services' release records
// (so survivors' recovered graphs carry the freed capacity), the dropped
// shard and its services vanish from the recovered state, and a post-restart
// re-attach of the same domain name resumes the shard's generation counter
// past the detached one instead of restarting at zero.
func TestCrashRecoveryAfterDetach(t *testing.T) {
	dir := t.TempDir()
	ro, st, _ := journaledMesh(t, dir, 3, 4)
	ctx := context.Background()

	// Survivor-only, victim-only, and cross-shard (d0+d1) services: the
	// latter two are displaced by detaching d1 and must release their DoV
	// share on d0 through the journal.
	for j := 0; j < 2; j++ {
		if _, err := ro.Install(ctx, slotChain(t, fmt.Sprintf("keep%d", j), 0, j)); err != nil {
			t.Fatal(err)
		}
		if _, err := ro.Install(ctx, slotChain(t, fmt.Sprintf("gone%d", j), 1, j)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ro.Install(ctx, crossChain(t, "span", 0, 2)); err != nil {
		t.Fatal(err)
	}

	report, err := ro.Detach(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	checkMembership(t, ro)
	if len(report.Displaced) != 3 {
		t.Fatalf("displaced: %+v", report.Displaced)
	}

	liveServices := ro.Services()
	liveSnaps := ro.ShardSnapshots()

	// kill -9 after the detach: recover from the WAL alone.
	ro2, state, info := crashRecover(t, dir)
	checkMembership(t, ro2)
	if len(info.Errors) != 0 {
		t.Fatalf("replay errors: %v", info.Errors)
	}
	if state.Detached["d1"] == 0 {
		t.Fatalf("recovered state lost the detach floor: %+v", state.Detached)
	}
	recServices := ro2.Services()
	if fmt.Sprint(recServices) != fmt.Sprint(liveServices) {
		t.Fatalf("recovered services %v, want %v", recServices, liveServices)
	}
	recSnaps := ro2.ShardSnapshots()
	if len(recSnaps) != len(liveSnaps) {
		t.Fatalf("recovered %d shards, want %d", len(recSnaps), len(liveSnaps))
	}
	for i := range liveSnaps {
		if recSnaps[i].Key != liveSnaps[i].Key || recSnaps[i].Gen != liveSnaps[i].Gen {
			t.Fatalf("shard %s gen %d, want %s gen %d",
				recSnaps[i].Key, recSnaps[i].Gen, liveSnaps[i].Key, liveSnaps[i].Gen)
		}
		// Byte-equality proves the release records replayed before the detach
		// dropped the service table entries: leaked releases would leave the
		// displaced services' allocations in d0's recovered graph.
		if !bytes.Equal(graphBytes(t, recSnaps[i].Graph), graphBytes(t, liveSnaps[i].Graph)) {
			t.Fatalf("shard %s graph diverged after detach replay", recSnaps[i].Key)
		}
	}

	// Re-attach a fresh d1 on the recovered orchestrator: its journal log must
	// stay gen-monotone, i.e. the new shard starts past the detached floor.
	lo := leafDomain(t, "d1", "reb-in", "reb-out", &recordingProgrammer{})
	if err := ro2.Attach(ctx, lo); err != nil {
		t.Fatal(err)
	}
	checkMembership(t, ro2)
	shard := ro2.dir.Load().shards["d1"]
	shard.mu.Lock()
	newGen := shard.gen
	shard.mu.Unlock()
	if newGen <= state.Detached["d1"] {
		t.Fatalf("re-attached shard gen %d not past detach floor %d", newGen, state.Detached["d1"])
	}

	// A checkpoint taken after the detach must not resurrect d1: the dropped
	// shard is absent from the snapshots, its WAL (holding the detach record)
	// survives pruning, and a second recovery folds both correctly.
	if err := st.Checkpoint(ro.ShardSnapshots); err != nil {
		t.Fatal(err)
	}
	ro3, state3, info3 := crashRecover(t, dir)
	checkMembership(t, ro3)
	if len(info3.Errors) != 0 {
		t.Fatalf("post-checkpoint replay errors: %v", info3.Errors)
	}
	if state3.Detached["d1"] == 0 {
		t.Fatal("checkpointed recovery lost the detach floor")
	}
	if got := ro3.Services(); fmt.Sprint(got) != fmt.Sprint(liveServices) {
		t.Fatalf("post-checkpoint services %v, want %v", got, liveServices)
	}
	for _, snap := range ro3.ShardSnapshots() {
		if snap.Key == "d1" {
			t.Fatal("checkpointed recovery resurrected the detached shard")
		}
	}
}
