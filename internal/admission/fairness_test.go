package admission

// Tests of the multi-tenant weighted-fair scheduler: DWRR weight shares,
// starvation regression (a backlogged elephant tenant cannot delay a mouse
// tenant beyond its weight share — run with -race like the rest of the
// package), priority aging, and the per-tenant queue/in-flight caps. The
// assertions are scheduling-order based (who dispatched before whom, what was
// left queued), not wall-clock based, so they hold on slow CI runners.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// slowLayer is a plain unify.Layer (no BatchInstaller, no Sharder) whose
// installs take a fixed latency — the knob that makes queue scheduling order
// observable. With gate set, the FIRST install signals entered and blocks
// until the gate closes, so a test can park the dispatcher (via an in-flight
// cap) while it finishes enqueuing a deterministic backlog.
type slowLayer struct {
	delay   time.Duration
	gate    chan struct{}
	entered chan struct{}

	mu       sync.Mutex
	gated    bool
	services map[string]bool
}

func (s *slowLayer) ID() string { return "slow" }
func (s *slowLayer) View(context.Context) (*nffg.NFFG, error) {
	return nffg.New("slow-view"), nil
}
func (s *slowLayer) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	if s.gate != nil {
		s.mu.Lock()
		first := !s.gated
		s.gated = true
		s.mu.Unlock()
		if first {
			if s.entered != nil {
				s.entered <- struct{}{}
			}
			select {
			case <-s.gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.mu.Lock()
	if s.services == nil {
		s.services = map[string]bool{}
	}
	s.services[req.ID] = true
	s.mu.Unlock()
	return &unify.Receipt{ServiceID: req.ID}, nil
}
func (s *slowLayer) Remove(_ context.Context, id string) error {
	s.mu.Lock()
	delete(s.services, id)
	s.mu.Unlock()
	return nil
}
func (s *slowLayer) Services() []string { return nil }

func tenantCtx(tenant string) context.Context {
	return unify.WithMeta(context.Background(), unify.RequestMeta{Tenant: tenant})
}

// TestDWRRWeightShare: with tenant weights 3:1 and both backlogged, every
// batch carries jobs in the weight ratio. A blocker batch holds the queue's
// one lane busy until every submission has landed, so the batches that
// follow it are deterministic.
func TestDWRRWeightShare(t *testing.T) {
	stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	q := New(stub, Options{
		MaxBatch:      8,
		TenantWeights: map[string]int{"heavy": 3, "light": 1},
	})
	defer q.Close()

	blocker, err := q.Submit(context.Background(), req("blocker"))
	if err != nil {
		t.Fatal(err)
	}
	<-stub.entered // the lane is busy: everything below queues behind it
	ids := []string{blocker.ID}
	submit := func(tenant, id string) {
		t.Helper()
		j, err := q.Submit(tenantCtx(tenant), req(id))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for i := 0; i < 12; i++ {
		submit("heavy", "h-"+string(rune('a'+i)))
	}
	for i := 0; i < 12; i++ {
		submit("light", "l-"+string(rune('a'+i)))
	}
	close(stub.gate)
	for _, id := range ids {
		if j, err := q.Wait(context.Background(), id); err != nil || j.State != StateDeployed {
			t.Fatalf("job %s: %v %v", id, j.State, err)
		}
	}
	// One lane: batches enter the layer one after another, so its batch log
	// is the scheduling order.
	stub.mu.Lock()
	batches := stub.batches
	stub.mu.Unlock()
	if len(batches) != 4 {
		t.Fatalf("expected the blocker plus 3 batches, got %v", batches)
	}
	count := func(batch []string, pfx string) int {
		n := 0
		for _, id := range batch {
			if strings.HasPrefix(id, pfx) {
				n++
			}
		}
		return n
	}
	// Both tenants backlogged: batches 1 and 2 must carry the 3:1 weight
	// share (6 heavy + 2 light in a MaxBatch of 8).
	for _, b := range batches[1:3] {
		if h, l := count(b, "h-"), count(b, "l-"); h != 6 || l != 2 {
			t.Fatalf("batch %v: want 6 heavy + 2 light, got %d+%d", b, h, l)
		}
	}
	// The heavy backlog is drained after two batches; the rest is light's.
	if h, l := count(batches[3], "h-"), count(batches[3], "l-"); h != 0 || l != 8 {
		t.Fatalf("batch 3 %v: want 0 heavy + 8 light, got %d+%d", batches[3], h, l)
	}
}

// TestNoStarvationUnderBacklog is the starvation regression test: a mouse
// tenant's single job must dispatch while an elephant tenant's backlog is
// still deep — bounded by the weight share, not by the backlog length. The
// FIFO baseline shows the failure mode the scheduler removes: there the mouse
// strictly drains the whole elephant backlog first.
func TestNoStarvationUnderBacklog(t *testing.T) {
	const backlog = 30
	for _, mode := range []struct {
		name string
		fifo bool
	}{{"fair", false}, {"fifo", true}} {
		t.Run(mode.name, func(t *testing.T) {
			layer := &slowLayer{delay: 5 * time.Millisecond}
			q := New(layer, Options{
				MaxBatch:          2,
				TenantMaxInFlight: 2,
				DisableFairness:   mode.fifo,
			})
			defer q.Close()
			var eIDs []string
			for i := 0; i < backlog; i++ {
				j, err := q.Submit(tenantCtx("elephant"), req("e"+string(rune('A'+i%26))+string(rune('a'+i/26))))
				if err != nil {
					t.Fatal(err)
				}
				eIDs = append(eIDs, j.ID)
			}
			mouse, err := q.Submit(tenantCtx("mouse"), req("mouse"))
			if err != nil {
				t.Fatal(err)
			}
			done, err := q.Wait(context.Background(), mouse.ID)
			if err != nil || done.State != StateDeployed {
				t.Fatalf("mouse: %v %v", done.State, err)
			}
			st := q.Stats()
			et := st.Tenants["elephant"]
			if mode.fifo {
				// Head-of-line baseline: the mouse dispatched only after the
				// whole elephant backlog.
				if et.Admitted != backlog {
					t.Fatalf("fifo: mouse finished with only %d/%d elephants admitted", et.Admitted, backlog)
				}
			} else {
				// Weighted-fair: when the mouse is done, most of the elephant
				// backlog must still be waiting its turn.
				if et.Depth < backlog/2 {
					t.Fatalf("fair: elephant backlog already drained to %d (of %d) when the mouse finished", et.Depth, backlog)
				}
				mt := st.Tenants["mouse"]
				if mt.Submitted != 1 || mt.Admitted != 1 || mt.WaitCount != 1 {
					t.Fatalf("mouse tenant stats inconsistent: %+v", mt)
				}
			}
			for _, id := range eIDs {
				if _, err := q.Wait(context.Background(), id); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestPriorityAging: within one tenant, high-priority jobs dispatch first,
// but a low-priority job ages one class per AgeAfter and eventually beats
// younger high-priority arrivals — with aging disabled it waits out the
// entire high stream.
func TestPriorityAging(t *testing.T) {
	const highs = 40
	for _, mode := range []struct {
		name     string
		ageAfter time.Duration
		maxAhead int // highs allowed to dispatch before the low job
	}{
		{"aging", 4 * time.Millisecond, highs - 5},
		{"disabled", -1, highs},
	} {
		t.Run(mode.name, func(t *testing.T) {
			layer := &slowLayer{
				delay:   2 * time.Millisecond,
				gate:    make(chan struct{}),
				entered: make(chan struct{}, 1),
			}
			q := New(layer, Options{
				MaxBatch:          1,
				TenantMaxInFlight: 1,
				AgeAfter:          mode.ageAfter,
			})
			defer q.Close()
			hctx := unify.WithMeta(context.Background(),
				unify.RequestMeta{Tenant: "t", Priority: unify.PriorityHigh})
			// The first high job dispatches immediately and parks inside the
			// gated layer; the in-flight cap of 1 then pins everything else in
			// the queue until the whole backlog is enqueued — without this the
			// free-running dispatcher could pop the low job while it is
			// momentarily the only one queued.
			primer, err := q.Submit(hctx, req("highPrimer"))
			if err != nil {
				t.Fatal(err)
			}
			hIDs := []string{primer.ID}
			<-layer.entered
			ctx := unify.WithMeta(context.Background(),
				unify.RequestMeta{Tenant: "t", Priority: unify.PriorityLow})
			low, err := q.Submit(ctx, req("low"))
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < highs; i++ {
				j, err := q.Submit(hctx, req("high"+string(rune('A'+i%26))+string(rune('a'+i/26))))
				if err != nil {
					t.Fatal(err)
				}
				hIDs = append(hIDs, j.ID)
			}
			close(layer.gate)
			lowDone, err := q.Wait(context.Background(), low.ID)
			if err != nil || lowDone.State != StateDeployed {
				t.Fatalf("low job: %v %v", lowDone.State, err)
			}
			for _, id := range hIDs {
				if _, err := q.Wait(context.Background(), id); err != nil {
					t.Fatal(err)
				}
			}
			ahead := 0
			for _, id := range hIDs {
				j, err := q.Job(id)
				if err != nil {
					t.Fatal(err)
				}
				if j.Started.Before(lowDone.Started) {
					ahead++
				}
			}
			if ahead > mode.maxAhead {
				t.Fatalf("%d/%d high jobs dispatched before the low one (bound %d)", ahead, highs, mode.maxAhead)
			}
			aged := q.Stats().Tenants["t"].Aged
			if mode.ageAfter > 0 && aged == 0 {
				t.Fatal("aging promotion not counted")
			}
			if mode.ageAfter < 0 {
				if ahead != highs {
					t.Fatalf("without aging the low job must dispatch last, but %d/%d highs were ahead", ahead, highs)
				}
				if aged != 0 {
					t.Fatalf("aging disabled but %d promotions counted", aged)
				}
			}
		})
	}
}

// TestTenantCaps: the per-tenant queue cap rejects (and counts) one tenant's
// excess without touching another tenant's ability to submit; the in-flight
// cap keeps the excess of a dispatched tenant queued.
func TestTenantCaps(t *testing.T) {
	stub := &stubLayer{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	q := New(stub, Options{
		TenantMaxInFlight: 1,
		TenantQueueCap:    3,
	})
	defer q.Close()

	// Job 1 dispatches (in-flight = cap) and blocks inside the layer.
	first, err := q.Submit(tenantCtx("x"), req("x1"))
	if err != nil {
		t.Fatal(err)
	}
	<-stub.entered
	// Jobs 2..4 fill x's queue; job 5 overflows it.
	for _, id := range []string{"x2", "x3", "x4"} {
		if _, err := q.Submit(tenantCtx("x"), req(id)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Submit(tenantCtx("x"), req("x5")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull for x's 5th job, got %v", err)
	}
	// Another tenant is unaffected by x's cap.
	yj, err := q.Submit(tenantCtx("y"), req("y1"))
	if err != nil {
		t.Fatalf("tenant y must not be capped by x: %v", err)
	}
	st := q.Stats()
	if st.Tenants["x"].Dropped != 1 {
		t.Fatalf("x's drop not counted: %+v", st.Tenants["x"])
	}
	if st.Tenants["x"].InFlight != 1 || st.Tenants["x"].Depth != 3 {
		t.Fatalf("x should hold 1 in flight + 3 queued: %+v", st.Tenants["x"])
	}
	close(stub.gate)
	for _, id := range []string{first.ID, yj.ID} {
		if j, err := q.Wait(context.Background(), id); err != nil || j.State != StateDeployed {
			t.Fatalf("job %s: %v %v", id, j.State, err)
		}
	}
}

// TestTenantReclamation: tenant names arrive from the network, so the
// scheduler state they materialize is bounded — beyond maxIdleTenants, idle
// unweighted tenants are reclaimed (and a full queue never registers new
// names at all).
func TestTenantReclamation(t *testing.T) {
	stub := &stubLayer{}
	q := New(stub, Options{
		TenantWeights: map[string]int{"keeper": 2},
	})
	defer q.Close()
	var ids []string
	for i := 0; i < maxIdleTenants+50; i++ {
		j, err := q.Submit(tenantCtx(fmt.Sprintf("churn-%d", i)), req(fmt.Sprintf("c%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		if j, err := q.Wait(context.Background(), id); err != nil || j.State != StateDeployed {
			t.Fatalf("job %s: %v %v", id, j.State, err)
		}
	}
	q.mu.Lock()
	tenants, order := len(q.tenants), len(q.order)
	_, keeperAlive := q.tenants["keeper"]
	q.mu.Unlock()
	if tenants > maxIdleTenants+1 || order != tenants {
		t.Fatalf("tenant state not reclaimed: %d tenants, %d rotation slots", tenants, order)
	}
	if !keeperAlive {
		t.Fatal("explicitly weighted tenants must never be reclaimed")
	}
}
