package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// deviceModel is a programmer that keeps its own model of the devices: the
// placed NFs (NF -> host) and each infra's flowtable (match -> rule ID),
// changed only by the deltas it applies. A delta carrying an NF with the
// refuse prefix is applied in part — its deletions, the rules of its first
// infra in ID order and the NFs before the refused one — and then refused.
// Only the delta right after it, the leaf's undo, may delete what the
// model does not hold, and only what the refused delta added.
type deviceModel struct {
	t      testing.TB
	refuse string

	mu      sync.Mutex
	nfs     map[nffg.ID]nffg.ID
	rules   map[nffg.ID]map[nffg.Match]string
	refused *nffg.Delta // the last delta, if it was refused
}

func newDeviceModel(t testing.TB, refuse string) *deviceModel {
	return &deviceModel{t: t, refuse: refuse, nfs: map[nffg.ID]nffg.ID{}, rules: map[nffg.ID]map[nffg.Match]string{}}
}

func (m *deviceModel) Commit(_ context.Context, d *nffg.Delta, _ *nffg.NFFG) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	undone := m.refused
	if undone == nil {
		undone = &nffg.Delta{}
	}
	m.refused = nil
	for _, id := range d.DelNFs {
		_, held := m.nfs[id]
		if !held && !slices.ContainsFunc(undone.AddNFs, func(nf *nffg.NF) bool { return nf.ID == id }) {
			m.t.Errorf("delta deletes NF %s the devices do not run", id)
		}
		delete(m.nfs, id)
	}
	for infra, rules := range d.DelRules {
		for _, f := range rules {
			_, held := m.rules[infra][f.Match]
			if !held && !slices.ContainsFunc(undone.AddRules[infra], func(a *nffg.Flowrule) bool { return a.Match == f.Match }) {
				m.t.Errorf("delta deletes rule %s on %s the devices do not hold", f.ID, infra)
			}
			delete(m.rules[infra], f.Match)
		}
	}
	refuse := slices.ContainsFunc(d.AddNFs, func(nf *nffg.NF) bool { return strings.HasPrefix(string(nf.ID), m.refuse) })
	for _, infra := range slices.Sorted(maps.Keys(d.AddRules)) {
		if m.rules[infra] == nil {
			m.rules[infra] = map[nffg.Match]string{}
		}
		for _, f := range d.AddRules[infra] {
			m.rules[infra][f.Match] = f.ID
		}
		if refuse {
			break
		}
	}
	for _, nf := range d.AddNFs {
		if strings.HasPrefix(string(nf.ID), m.refuse) {
			m.refused = d
			return errors.New("device refused the delta")
		}
		if _, ok := m.nfs[nf.ID]; ok {
			m.t.Errorf("delta adds NF %s the devices already run", nf.ID)
		}
		m.nfs[nf.ID] = nf.Host
	}
	return nil
}

// state renders the model as placed NFs plus sorted rule IDs per infra.
func (m *deviceModel) state() (map[nffg.ID]nffg.ID, map[nffg.ID]string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rules := map[nffg.ID]string{}
	for infra, table := range m.rules {
		if len(table) > 0 {
			rules[infra] = fmt.Sprint(slices.Sorted(maps.Values(table)))
		}
	}
	return maps.Clone(m.nfs), rules
}

// graphState renders a configured substrate the same way.
func graphState(g *nffg.NFFG) (map[nffg.ID]nffg.ID, map[nffg.ID]string) {
	nfs := map[nffg.ID]nffg.ID{}
	for id, nf := range g.NFs.All() {
		if nf.Host != "" {
			nfs[id] = nf.Host
		}
	}
	rules := map[nffg.ID]string{}
	for id, infra := range g.Infras.All() {
		if len(slices.Collect(infra.Flowrules())) > 0 {
			table := map[nffg.Match]string{}
			for f := range infra.Flowrules() {
				table[f.Match] = f.ID
			}
			rules[id] = fmt.Sprint(slices.Sorted(maps.Values(table)))
		}
	}
	return nfs, rules
}

// slotLeaf builds a leaf over two nodes whose SAPs come in one pair per
// (worker, slot): u<w>.<k> on n1 to v<w>.<k> on n2. Chains between distinct
// pairs never compete for a flowtable match.
func slotLeaf(t testing.TB, workers int, prog Programmer) *LocalOrchestrator {
	t.Helper()
	ports := 2*workers + 1
	b := nffg.NewBuilder("mn").
		BiSBiS("mn-n1", "mn", ports, res(64, 65536), "fw").
		BiSBiS("mn-n2", "mn", ports, res(64, 65536), "fw").
		Link("i", "mn-n1", "1", "mn-n2", "1", 10000, 1)
	for w := 0; w < workers; w++ {
		for k := 0; k < 2; k++ {
			u, v, port := slotSAPs(w, k)
			b.SAP(u).SAP(v).
				Link("l"+string(u), u, "1", "mn-n1", port, 1000, 1).
				Link("l"+string(v), "mn-n2", port, v, "1", 1000, 1)
		}
	}
	sub, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lo, err := NewLocalOrchestrator(LocalConfig{ID: "mn", Substrate: sub, Programmer: prog})
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

func slotSAPs(w, k int) (u, v nffg.ID, port string) {
	return nffg.ID(fmt.Sprintf("u%d.%d", w, k)), nffg.ID(fmt.Sprintf("v%d.%d", w, k)), fmt.Sprint(2 + 2*w + k)
}

// TestLeafDeltasComposeToSubstrate: every delta a leaf programs is relative
// to what the devices hold, so after concurrent installs, refused installs
// and removes the devices' own model equals the leaf's configured
// substrate. Each worker alternates between its two SAP pairs: it installs
// on the free one, then removes its previous service from the other.
func TestLeafDeltasComposeToSubstrate(t *testing.T) {
	ctx := context.Background()
	const workers = 4
	dev := newDeviceModel(t, "bad")
	lo := slotLeaf(t, workers, dev)
	var busy atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prev, slot := "", 0
			for i := 0; i < 16; i++ {
				id := fmt.Sprintf("w%d-s%d", w, i)
				if i%5 == 4 {
					id = "bad-" + id
				}
				u, v, _ := slotSAPs(w, slot)
				_, err := lo.Install(ctx, chainReq(t, id, u, v, "fw"))
				switch {
				case errors.Is(err, unify.ErrBusy):
					// Crowded out by the other workers: nothing changed.
					busy.Add(1)
					continue
				case strings.HasPrefix(id, "bad-"):
					if !errors.Is(err, unify.ErrRejected) {
						t.Errorf("refused install %s: %v", id, err)
					}
					continue
				case err != nil:
					t.Errorf("install %s: %v", id, err)
					continue
				}
				if prev != "" {
					if err := lo.Remove(ctx, prev); err != nil {
						t.Errorf("remove %s: %v", prev, err)
					}
				}
				prev, slot = id, 1-slot
			}
		}(w)
	}
	wg.Wait()
	t.Logf("%d installs crowded out", busy.Load())

	gotNFs, gotRules := dev.state()
	wantNFs, wantRules := graphState(lo.Internal())
	if len(wantNFs) == 0 || len(wantNFs) > workers {
		t.Fatalf("%d services survived the run, want one per worker: %v", len(wantNFs), wantNFs)
	}
	if !maps.Equal(gotNFs, wantNFs) {
		t.Errorf("device NFs %v, substrate NFs %v", gotNFs, wantNFs)
	}
	if !maps.Equal(gotRules, wantRules) {
		t.Errorf("device flowtables %v, substrate flowtables %v", gotRules, wantRules)
	}
}

// TestOneShardChurnNeverBusy: workers churning installs and removes on one
// shard lose commit races to each other, and a group that has lost twice
// plans again under the shard's lock, so every request is decided on its
// merits: none returns unify.ErrBusy.
func TestOneShardChurnNeverBusy(t *testing.T) {
	ctx := context.Background()
	const workers = 8
	lo := slotLeaf(t, workers, &slowProgrammer{delay: 200 * time.Microsecond})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				id := fmt.Sprintf("w%d-s%d", w, i)
				u, v, _ := slotSAPs(w, i%2)
				if _, err := lo.Install(ctx, chainReq(t, id, u, v, "fw")); err != nil {
					t.Errorf("install %s: %v", id, err)
					continue
				}
				if err := lo.Remove(ctx, id); err != nil {
					t.Errorf("remove %s: %v", id, err)
				}
			}
		}(w)
	}
	wg.Wait()
	st := lo.ro.PipelineStats()
	t.Logf("%d generation conflicts; %d groups planned again under the shard lock", st.GenConflicts, st.Busy)
	if st.Busy == 0 {
		t.Fatalf("no group lost %d races (%d generation conflicts): the locked attempt never ran", lockAfterLosses, st.GenConflicts)
	}
}

// TestLeafInstallCanceledInsideCommit: a caller canceling while the devices
// are being programmed gets the context error back, and the leaf records
// neither the service nor its configuration.
func TestLeafInstallCanceledInsideCommit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lo := leafDomain(t, "mn", "sap1", "border", ProgrammerFunc(func(pctx context.Context, _ *nffg.Delta, _ *nffg.NFFG) error {
		cancel()
		<-pctx.Done()
		return pctx.Err()
	}))
	_, err := lo.Install(ctx, chainReq(t, "svc", "sap1", "border", "fw"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("install canceled inside Commit: %v", err)
	}
	if got := lo.Services(); len(got) != 0 {
		t.Fatalf("canceled install recorded %v", got)
	}
	if nfs, _ := graphState(lo.Internal()); len(nfs) != 0 {
		t.Fatalf("canceled install published NFs %v", nfs)
	}
}

// TestLeafUndoesAFailedDelta: when a Programmer fails a delta, the leaf
// commits the removal of its additions through the same Programmer, so
// devices that applied part of the delta hold what they held before; the
// undo is not counted as a delta. A failed delta that only deletes gets no
// undo, and an undo that fails too is named in the returned error, which
// still wraps the Programmer's cause.
func TestLeafUndoesAFailedDelta(t *testing.T) {
	ctx := context.Background()
	u0, v0, _ := slotSAPs(0, 0)
	u1, v1, _ := slotSAPs(0, 1)
	errDevice := errors.New("device refused the delta")
	t.Run("partial additions are taken back", func(t *testing.T) {
		dev := newDeviceModel(t, "bad")
		lo := slotLeaf(t, 1, dev)
		if _, err := lo.Install(ctx, chainReq(t, "ok", u0, v0, "fw")); err != nil {
			t.Fatal(err)
		}
		before := lo.SouthboundStats().Deltas
		if _, err := lo.Install(ctx, chainReq(t, "bad", u1, v1, "fw")); !errors.Is(err, unify.ErrRejected) {
			t.Fatalf("refused install: %v", err)
		}
		if got := lo.SouthboundStats().Deltas - before; got != 1 {
			t.Errorf("the refused install counted %d deltas, want 1: its undo is not one", got)
		}
		gotNFs, gotRules := dev.state()
		wantNFs, wantRules := graphState(lo.Internal())
		if len(wantNFs) != 1 || !maps.Equal(gotNFs, wantNFs) || !maps.Equal(gotRules, wantRules) {
			t.Errorf("devices hold NFs %v, rules %v; substrate NFs %v, rules %v", gotNFs, gotRules, wantNFs, wantRules)
		}
		if _, err := lo.Install(ctx, chainReq(t, "again", u1, v1, "fw")); err != nil {
			t.Fatalf("install after a refused one: %v", err)
		}
	})
	t.Run("a failed removal is not undone", func(t *testing.T) {
		dev := newDeviceModel(t, "bad")
		var commits atomic.Int32
		var failRemoves atomic.Bool
		lo := slotLeaf(t, 1, ProgrammerFunc(func(ctx context.Context, d *nffg.Delta, cfg *nffg.NFFG) error {
			commits.Add(1)
			if failRemoves.Load() && len(d.AddNFs) == 0 && len(d.AddRules) == 0 {
				return errDevice
			}
			return dev.Commit(ctx, d, cfg)
		}))
		if _, err := lo.Install(ctx, chainReq(t, "ok", u0, v0, "fw")); err != nil {
			t.Fatal(err)
		}
		failRemoves.Store(true)
		before := commits.Load()
		if err := lo.Remove(ctx, "ok"); !errors.Is(err, errDevice) {
			t.Fatalf("refused remove: %v", err)
		}
		if got := commits.Load() - before; got != 1 {
			t.Errorf("the refused remove reached the Programmer %d times, want 1", got)
		}
		if got := lo.Services(); !slices.Equal(got, []string{"ok"}) {
			t.Errorf("services after a refused remove: %v", got)
		}
	})
	t.Run("a failed undo is named", func(t *testing.T) {
		lo := slotLeaf(t, 1, ProgrammerFunc(func(_ context.Context, d *nffg.Delta, _ *nffg.NFFG) error {
			if len(d.AddNFs) == 0 && len(d.AddRules) == 0 {
				return errors.New("link lost")
			}
			return errDevice
		}))
		_, err := lo.Install(ctx, chainReq(t, "ok", u0, v0, "fw"))
		if !errors.Is(err, unify.ErrRejected) || !errors.Is(err, errDevice) || !strings.Contains(err.Error(), "undo: link lost") {
			t.Fatalf("install whose undo failed: %v", err)
		}
	})
}

// TestLeafTrafficStaysPerRequest: a leaf is an orchestrator underneath, but
// it exposes neither batch installs nor shard sets. An admission queue in
// front of it therefore dispatches one Install per job, each terminal group
// is one request, and a tracing wrapper around Install sees every job.
func TestLeafTrafficStaysPerRequest(t *testing.T) {
	var layer any = leafDomain(t, "mn", "sap1", "border", nil)
	if _, ok := layer.(unify.BatchInstaller); ok {
		t.Error("a leaf must not implement unify.BatchInstaller")
	}
	if _, ok := layer.(unify.Sharder); ok {
		t.Error("a leaf must not implement unify.Sharder")
	}
}
