package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// checkMembership asserts the membership contract over the one directory:
// its shards, children, node sets, derived owner map, reverse index and
// tombstones agree with each other and hold nothing of dropped shards, and
// the reservations and service table reference only live services and
// shards. The membership checks read one directory value, so they hold even
// beside concurrent attaches; the service-table checks want no install,
// removal or detach in flight.
func checkMembership(t testing.TB, ro *ResourceOrchestrator) {
	t.Helper()
	dir := ro.dir.Load()
	// Shard locks before ro.mu: the documented lock order.
	published := map[string]bool{}
	for _, key := range dir.keys {
		sh := dir.shards[key]
		sh.mu.Lock()
		gen, commits, dov := sh.gen, sh.commits, sh.dov
		sh.mu.Unlock()
		if gen != commits {
			t.Errorf("shard %s: gen %d != commits %d", key, gen, commits)
		}
		published[key] = dov != nil
	}
	ro.mu.Lock()
	defer ro.mu.Unlock()

	live := map[string]bool{}
	for _, key := range dir.keys {
		live[key] = true
	}
	if len(dir.shards) != len(dir.keys) || !slices.IsSorted(dir.keys) {
		t.Errorf("directory: %d shards vs keys %v", len(dir.shards), dir.keys)
	}
	for child, m := range dir.children {
		if !live[m.key] {
			t.Errorf("child %s -> dropped shard %s", child, m.key)
		}
		if m.d != nil && !published[m.key] {
			t.Errorf("child %s has a handle but shard %s holds no graph", child, m.key)
		}
	}
	for key := range dir.nodes {
		if !live[key] {
			t.Errorf("node set of dropped shard %s", key)
		}
	}
	for key := range dir.floors {
		if live[key] {
			t.Errorf("live shard %s keeps a generation floor", key)
		}
	}
	// The index is exactly the union of the shards' node sets.
	want := map[nffg.ID][]string{}
	for _, key := range dir.keys {
		for node := range dir.nodes[key] {
			want[node] = append(want[node], key)
		}
	}
	if !reflect.DeepEqual(dir.index, want) {
		t.Errorf("index %v, want the shards' node sets %v", dir.index, want)
	}
	for node, keys := range dir.index {
		for _, key := range keys {
			if !live[key] {
				t.Errorf("index[%s] references dropped shard %s", node, key)
			}
		}
	}
	for inf, child := range dir.owner {
		if _, ok := dir.children[child]; !ok {
			t.Errorf("owner[%s] -> detached child %s", inf, child)
		}
	}
	for node := range dir.departed {
		if len(dir.index[node]) != 0 {
			t.Errorf("departed node %s still indexed", node)
		}
	}
	// Reservations must belong to live services, and vice versa: a displaced
	// service leaves no NF/hop identifier behind.
	for nf, svc := range ro.nfOwner {
		if _, ok := ro.services[svc]; !ok {
			t.Errorf("nfOwner[%s] -> unknown service %s", nf, svc)
		}
	}
	for hop, svc := range ro.hopOwner {
		if _, ok := ro.services[svc]; !ok {
			t.Errorf("hopOwner[%s] -> unknown service %s", hop, svc)
		}
	}
	for id, rec := range ro.services {
		for _, key := range rec.shards {
			if !live[key] {
				t.Errorf("service %s touches dropped shard %s", id, key)
			}
		}
	}
}

func TestDetachUnwindsEverything(t *testing.T) {
	ro, _ := lineRO(t, 3, 0, nil)

	// One service pinned on the victim, one on a survivor.
	victimReq := chainReq(t, "on-d1", "b0", "b1", "fw")
	victimReq.NFs.Get("on-d1-nf").Host = "bisbis@d1"
	if _, err := ro.Install(context.Background(), victimReq); err != nil {
		t.Fatal(err)
	}
	survivorReq := chainReq(t, "on-d0", "sap1", "b0", "dpi")
	survivorReq.NFs.Get("on-d0-nf").Host = "bisbis@d0"
	if _, err := ro.Install(context.Background(), survivorReq); err != nil {
		t.Fatal(err)
	}

	report, err := ro.Detach(context.Background(), "d1")
	if err != nil {
		t.Fatal(err)
	}
	if report.Child != "d1" || report.Shard != "d1" {
		t.Fatalf("report: %+v", report)
	}
	if len(report.Displaced) != 1 || report.Displaced[0].ServiceID != "on-d1" {
		t.Fatalf("displaced: %+v", report.Displaced)
	}
	if report.Displaced[0].Request == nil {
		t.Fatal("displaced service lost its request graph")
	}

	checkMembership(t, ro)
	ro.mu.Lock()
	if _, ok := ro.services["on-d1"]; ok {
		t.Error("displaced service still in table")
	}
	if _, ok := ro.services["on-d0"]; !ok {
		t.Error("survivor service dropped")
	}
	ro.mu.Unlock()
	if departed := ro.dir.Load().departed; departed["bisbis@d1"] != "d1" {
		t.Errorf("departed tombstone: %v", departed)
	}

	// The DoV no longer contains the victim's node; reads stay consistent.
	dov := mustDoV(t, ro)
	if _, ok := dov.Infras.Lookup("bisbis@d1"); ok {
		t.Error("detached infra still in DoV")
	}
	if err := dov.Validate(); err != nil {
		t.Fatalf("post-detach DoV: %v", err)
	}

	// A request pinned to the departed node fails typed, not opaque.
	dead := chainReq(t, "late", "sap1", "b0", "fw")
	dead.NFs.Get("late-nf").Host = "bisbis@d1"
	if _, err := ro.Install(context.Background(), dead); !errors.Is(err, unify.ErrDomainUnavailable) {
		t.Fatalf("install on departed node: %v", err)
	}

	// Double detach: unknown.
	if _, err := ro.Detach(context.Background(), "d1"); !errors.Is(err, domain.ErrUnknown) {
		t.Fatalf("double detach: %v", err)
	}
}

func TestDetachRequiresPerDomainShard(t *testing.T) {
	ro := NewResourceOrchestrator(Config{ID: "ro", ShardKey: SingleShard})
	for _, name := range []string{"a", "b"} {
		lo := leafDomain(t, name, nffg.ID("sap-"+name), nffg.ID("border-"+name), &recordingProgrammer{})
		if err := ro.Attach(context.Background(), lo); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ro.Detach(context.Background(), "a"); err == nil {
		t.Fatal("shared-shard detach must be refused")
	}
}

func TestDetachReattachCycle(t *testing.T) {
	ro, _ := lineRO(t, 3, 0, nil)
	checkMembership(t, ro)
	genBefore := ro.ShardStats()[2].Gen

	if _, err := ro.Detach(context.Background(), "d2"); err != nil {
		t.Fatal(err)
	}
	checkMembership(t, ro)
	// Re-attach a fresh leaf under the same name: the tombstones clear and
	// the shard's generation resumes past the detached one (the journal
	// replay contract — per-shard records stay gen-monotone forever).
	lo := leafDomain(t, "d2", "b1", "sap2", &recordingProgrammer{})
	if err := ro.Attach(context.Background(), lo); err != nil {
		t.Fatal(err)
	}
	checkMembership(t, ro)
	dir := ro.dir.Load()
	if len(dir.departed) != 0 {
		t.Errorf("tombstones survived re-attach: %v", dir.departed)
	}
	if genAfter := ro.ShardStats()[2].Gen; genAfter <= genBefore {
		t.Fatalf("shard generation regressed across detach/attach: %d -> %d", genBefore, genAfter)
	}

	req := chainReq(t, "back", "b1", "sap2", "fw")
	req.NFs.Get("back-nf").Host = "bisbis@d2"
	if _, err := ro.Install(context.Background(), req); err != nil {
		t.Fatalf("install after re-attach: %v", err)
	}
}

// TestDetachStorm races runtime Detach/Attach cycles of one domain against
// concurrent installs, removals, and DoV reads across the fleet. Run under
// -race. Asserts: readers never see a torn cut (every DoV merge succeeds and
// validates), installs fail only with the sanctioned errors, and after the
// storm the reverse index, reservation tables, and service table are exactly
// consistent (checkMembership).
func TestDetachStorm(t *testing.T) {
	ro, _ := lineRO(t, 4, 0, nil)
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var torn atomic.Int32
	var badErr atomic.Pointer[string]

	// Readers: the DoV must always merge and validate — stale is fine, torn
	// is not.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				dov, err := ro.DoV()
				if err != nil {
					torn.Add(1)
					return
				}
				if err := dov.Validate(); err != nil {
					torn.Add(1)
					return
				}
			}
		}()
	}

	sanctioned := func(err error) bool {
		return err == nil ||
			errors.Is(err, unify.ErrDomainUnavailable) ||
			errors.Is(err, unify.ErrBusy) ||
			errors.Is(err, unify.ErrRejected) ||
			errors.Is(err, unify.ErrUnknownService)
	}

	// Writers: half the installs target the flapping domain d3, half the
	// stable d0; each goroutine churns install/remove so reservations and
	// releases race the membership changes.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("storm-%d-%d", w, i)
				var req *nffg.NFFG
				if i%2 == 0 {
					req = chainReq(t, id, "b2", "sap2", "fw")
					req.NFs.Get(nffg.ID(id + "-nf")).Host = "bisbis@d3"
				} else {
					req = chainReq(t, id, "sap1", "b0", "fw")
					req.NFs.Get(nffg.ID(id + "-nf")).Host = "bisbis@d0"
				}
				_, err := ro.Install(ctx, req)
				if !sanctioned(err) {
					s := err.Error()
					badErr.Store(&s)
					return
				}
				if err == nil {
					if rerr := ro.Remove(ctx, id); !sanctioned(rerr) {
						s := rerr.Error()
						badErr.Store(&s)
						return
					}
				}
			}
		}(w)
	}

	// The flapper: detach d3, re-attach a fresh leaf under the same name.
	deadline := time.After(2 * time.Second)
	cycles := 0
flap:
	for {
		select {
		case <-deadline:
			break flap
		default:
		}
		if _, err := ro.Detach(ctx, "d3"); err != nil && !errors.Is(err, unify.ErrBusy) {
			t.Fatalf("detach cycle %d: %v", cycles, err)
		}
		lo := leafDomain(t, "d3", "b2", "sap2", &recordingProgrammer{})
		if err := ro.Attach(ctx, lo); err != nil {
			t.Fatalf("re-attach cycle %d: %v", cycles, err)
		}
		cycles++
	}
	close(stop)
	wg.Wait()

	if torn.Load() != 0 {
		t.Fatal("reader observed a torn or invalid DoV cut")
	}
	if s := badErr.Load(); s != nil {
		t.Fatalf("writer got unsanctioned error: %s", *s)
	}
	if cycles == 0 {
		t.Fatal("storm completed no detach/attach cycles")
	}
	t.Logf("storm: %d detach/attach cycles", cycles)

	// Drain whatever the writers left installed, then demand exact cleanup.
	for _, id := range ro.Services() {
		if err := ro.Remove(ctx, id); err != nil && !errors.Is(err, unify.ErrUnknownService) {
			t.Fatalf("drain %s: %v", id, err)
		}
	}
	checkMembership(t, ro)
}

// holdingProgrammer is a leaf Programmer that, while armed, blocks every
// teardown delta (one that deletes NFs or flowrules) until release closes,
// announcing each blocked delta on entered.
type holdingProgrammer struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (p *holdingProgrammer) Commit(ctx context.Context, d *nffg.Delta, _ *nffg.NFFG) error {
	if _, delNFs, _, delRules := d.Counts(); p.armed.Load() && delNFs+delRules > 0 {
		p.entered <- struct{}{}
		select {
		case <-p.release:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// TestDetachCutIsAtomic pins the atomicity of Detach deterministically: one
// service spans the survivor d2 (its home shard, which records the hop
// b1 -> x-nf) and the departing d3 (which holds x-nf). While Detach(d3) is
// held inside d2's teardown, every DoV cut must be either wholly before or
// wholly after the detach: it merges, validates, and holds neither the
// departed node nor the displaced service's hop.
func TestDetachCutIsAtomic(t *testing.T) {
	hold := &holdingProgrammer{entered: make(chan struct{}), release: make(chan struct{})}
	var once sync.Once
	unblock := func() { once.Do(func() { close(hold.release) }) }
	t.Cleanup(unblock)
	ro, _ := lineRO(t, 4, 0, map[int]Programmer{2: hold})
	ctx := context.Background()

	req := chainReq(t, "x", "b1", "sap2", "fw")
	req.NFs.Get("x-nf").Host = "bisbis@d3"
	if _, err := ro.Install(ctx, req); err != nil {
		t.Fatal(err)
	}
	ro.mu.Lock()
	shards := fmt.Sprint(ro.services["x"].shards)
	ro.mu.Unlock()
	if shards != "[d2 d3]" {
		t.Fatalf("service x touches %s, want [d2 d3]", shards)
	}

	hold.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := ro.Detach(ctx, "d3")
		done <- err
	}()
	select {
	case <-hold.entered:
	case err := <-done:
		t.Fatalf("Detach returned (%v) without tearing x down on d2", err)
	}

	// Detach is now held mid-teardown on d2.
	dov, err := ro.DoV()
	if err != nil {
		t.Fatalf("DoV during detach: %v", err)
	}
	if err := dov.Validate(); err != nil {
		t.Fatalf("torn cut during detach: %v", err)
	}
	if _, ok := dov.Infras.Lookup("bisbis@d3"); ok {
		t.Error("cut during the teardown still holds the departed node")
	}
	if dov.HopByID("x-1") != nil {
		t.Error("cut during the teardown still holds the displaced service's hop")
	}

	unblock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkMembership(t, ro)
	if err := mustDoV(t, ro).Validate(); err != nil {
		t.Fatalf("post-detach DoV: %v", err)
	}
}
