package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/unify-repro/escape/internal/journal"
	"github.com/unify-repro/escape/internal/nffg"
)

// graphBytes renders a graph through its deterministic JSON encoding, so two
// graphs can be compared byte-for-byte.
func graphBytes(t testing.TB, g *nffg.NFFG) []byte {
	t.Helper()
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// journaledMesh is meshROCfg with a write-ahead journal in dir, returning the
// leaf orchestrators too so a recovered control plane can Reattach them.
func journaledMesh(t testing.TB, dir string, n, slots int) (*ResourceOrchestrator, *journal.Store, []*LocalOrchestrator) {
	t.Helper()
	st, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ro := NewResourceOrchestrator(Config{ID: "ro", Journal: st})
	leaves := make([]*LocalOrchestrator, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("d%d", i)
		node := nffg.ID(name + "-n")
		bl := nffg.NewBuilder(name).
			BiSBiS(node, name, 2+2*slots, res(1<<16, 1<<24), "fw", "dpi", "nat")
		port := 1
		if i > 0 {
			left := nffg.ID(fmt.Sprintf("x%d", i-1))
			bl.SAP(left).Link("bl", left, "1", node, fmt.Sprint(port), 1e6, 1)
			port++
		}
		if i < n-1 {
			right := nffg.ID(fmt.Sprintf("x%d", i))
			bl.SAP(right).Link("br", node, fmt.Sprint(port), right, "1", 1e6, 1)
			port++
		}
		for j := 0; j < slots; j++ {
			in := nffg.ID(fmt.Sprintf("d%d-u%din", i, j))
			out := nffg.ID(fmt.Sprintf("d%d-u%dout", i, j))
			bl.SAP(in).Link(fmt.Sprintf("ui%d", j), in, "1", node, fmt.Sprint(port), 1e6, 1)
			port++
			bl.SAP(out).Link(fmt.Sprintf("uo%d", j), node, fmt.Sprint(port), out, "1", 1e6, 1)
			port++
		}
		lo, err := NewLocalOrchestrator(LocalConfig{ID: name, Substrate: bl.MustBuild()})
		if err != nil {
			t.Fatal(err)
		}
		if err := ro.Attach(context.Background(), lo); err != nil {
			t.Fatal(err)
		}
		leaves[i] = lo
	}
	return ro, st, leaves
}

// crashRecover simulates the kill -9 aftermath: the store was abandoned
// WITHOUT Close (matching a process that died mid-write — appends are already
// in the files, nothing gets a final sync), the journal is recovered, and a
// fresh orchestrator restores from it.
func crashRecover(t testing.TB, dir string) (*ResourceOrchestrator, *journal.RecoveredState, *journal.Info) {
	t.Helper()
	state, info, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	ro := NewResourceOrchestrator(Config{ID: "ro"})
	if err := ro.Restore(state); err != nil {
		t.Fatal(err)
	}
	return ro, state, info
}

// TestCrashRecoveryCommitStorm is the payoff test of the durability plane:
// a concurrent install/remove storm against a journaled orchestrator, a
// simulated kill -9 (store abandoned un-Closed, garbage appended to a log
// tail), then recovery — which must reproduce the surviving services, the
// shard graphs byte-for-byte, and tear back down to a clean substrate.
func TestCrashRecoveryCommitStorm(t *testing.T) {
	const n = 24
	dir := t.TempDir()
	ro, _, leaves := journaledMesh(t, dir, 2, n)

	baseline := graphBytes(t, mustDoV(t, ro))

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("svc%02d", i)
			var req *nffg.NFFG
			switch i % 3 {
			case 0: // d0 only
				req = slotChain(t, id, 0, i)
			case 1: // d1 only
				req = slotChain(t, id, 1, i)
			default: // cross-domain two-phase commit
				req = crossChain(t, id, 0, i)
			}
			if _, err := ro.Install(context.Background(), req); err != nil {
				errs[i] = err
				return
			}
			// Every 4th service is removed again mid-storm: release records
			// must replay too.
			if i%4 == 0 {
				errs[i] = ro.Remove(context.Background(), id)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("storm op %d: %v", i, err)
		}
	}

	liveServices := ro.Services()
	liveSnaps := ro.ShardSnapshots()
	if len(liveServices) != n-n/4 {
		t.Fatalf("live services: %d, want %d", len(liveServices), n-n/4)
	}

	// kill -9: no Close, no final sync — and the crash tore the tail of one
	// shard's newest segment.
	seg := filepath.Join(dir, "shards", "d0", "wal-000001.log")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("UJR1\x40\x00\x00\x00garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ro2, _, info := crashRecover(t, dir)
	if !info.Recovered {
		t.Fatal("nothing recovered")
	}
	if info.TornTails != 1 {
		t.Fatalf("torn tails: %d, want 1", info.TornTails)
	}
	if len(info.Errors) != 0 {
		t.Fatalf("replay errors: %v", info.Errors)
	}

	// Zero committed mappings lost: the recovered service set matches the
	// live one, receipts included.
	recServices := ro2.Services()
	if len(recServices) != len(liveServices) {
		t.Fatalf("recovered %d services, live had %d:\n%v\nvs\n%v",
			len(recServices), len(liveServices), recServices, liveServices)
	}
	for i := range liveServices {
		if recServices[i] != liveServices[i] {
			t.Fatalf("service sets differ: %v vs %v", recServices, liveServices)
		}
	}
	receipts := ro2.ServiceReceipts()
	for _, id := range liveServices {
		if receipts[id] == nil {
			t.Fatalf("service %s recovered without a receipt", id)
		}
	}

	// Shard graphs replay byte-for-byte: same allocations, same topology.
	recSnaps := ro2.ShardSnapshots()
	if len(recSnaps) != len(liveSnaps) {
		t.Fatalf("shards: %d vs %d", len(recSnaps), len(liveSnaps))
	}
	for i := range liveSnaps {
		if recSnaps[i].Key != liveSnaps[i].Key || recSnaps[i].Gen != liveSnaps[i].Gen {
			t.Fatalf("shard %s: gen %d vs %s gen %d",
				recSnaps[i].Key, recSnaps[i].Gen, liveSnaps[i].Key, liveSnaps[i].Gen)
		}
		got, want := graphBytes(t, recSnaps[i].Graph), graphBytes(t, liveSnaps[i].Graph)
		if !bytes.Equal(got, want) {
			t.Fatalf("shard %s graph diverged after replay:\n%s\nvs\n%s", recSnaps[i].Key, got, want)
		}
	}

	// Reattach the (still running) children and tear everything down: the
	// recovered book must be good enough to free every allocation.
	for _, lo := range leaves {
		if err := ro2.Reattach(context.Background(), lo); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range recServices {
		if err := ro2.Remove(context.Background(), id); err != nil {
			t.Fatalf("remove %s after recovery: %v", id, err)
		}
	}
	if got := graphBytes(t, mustDoV(t, ro2)); !bytes.Equal(got, baseline) {
		t.Fatalf("DoV after full teardown differs from pre-storm baseline:\n%s\nvs\n%s", got, baseline)
	}
}

// TestCrashRecoveryWithCheckpoint runs installs with checkpoints taken
// mid-flight: recovery folds checkpoint + WAL tail and must reach the same
// state a pure-WAL replay would.
func TestCrashRecoveryWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ro, st, _ := journaledMesh(t, dir, 2, 9)

	install := func(i int) {
		id := fmt.Sprintf("ck%02d", i)
		if _, err := ro.Install(context.Background(), crossChain(t, id, 0, i)); err != nil {
			t.Fatalf("install %s: %v", id, err)
		}
	}
	for i := 0; i < 4; i++ {
		install(i)
	}
	if err := st.Checkpoint(ro.ShardSnapshots); err != nil {
		t.Fatal(err)
	}
	if err := ro.Remove(context.Background(), "ck00"); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 8; i++ {
		install(i)
	}
	if err := st.Checkpoint(ro.ShardSnapshots); err != nil {
		t.Fatal(err)
	}
	install(8)

	liveSnaps := ro.ShardSnapshots()
	liveServices := ro.Services()

	ro2, _, info := crashRecover(t, dir) // no Close: crash after last install
	if info.CheckpointsLoaded == 0 {
		t.Fatal("recovery ignored the checkpoints")
	}
	recServices := ro2.Services()
	if len(recServices) != len(liveServices) {
		t.Fatalf("recovered %v, want %v", recServices, liveServices)
	}
	recSnaps := ro2.ShardSnapshots()
	for i := range liveSnaps {
		if recSnaps[i].Gen != liveSnaps[i].Gen {
			t.Fatalf("shard %s gen %d, want %d", recSnaps[i].Key, recSnaps[i].Gen, liveSnaps[i].Gen)
		}
		if !bytes.Equal(graphBytes(t, recSnaps[i].Graph), graphBytes(t, liveSnaps[i].Graph)) {
			t.Fatalf("shard %s graph diverged (checkpoint fold)", recSnaps[i].Key)
		}
	}
}

// TestRestoreRejectsNonEmpty pins the restore precondition.
func TestRestoreRejectsNonEmpty(t *testing.T) {
	ro, _, _ := buildMdO(t, &recordingProgrammer{}, &recordingProgrammer{})
	err := ro.Restore(&journal.RecoveredState{
		Shards: []journal.RecoveredShard{{Key: "x", Gen: 1}},
		Epoch:  1,
	})
	if err == nil {
		t.Fatal("Restore on a populated orchestrator must refuse")
	}
}

// TestReattachUnknownChildFallsThrough pins Reattach's attach fallback: a
// child the journal never saw attaches normally (view merged once).
func TestReattachUnknownChildFallsThrough(t *testing.T) {
	ro := NewResourceOrchestrator(Config{ID: "ro"})
	lo := leafDomain(t, "domZ", "sapZ", "b-z", &recordingProgrammer{})
	if err := ro.Reattach(context.Background(), lo); err != nil {
		t.Fatal(err)
	}
	dov := mustDoV(t, ro)
	if dov.Infras.Len() != 1 {
		t.Fatalf("fallback attach did not merge the view: %s", dov.Render())
	}
}
