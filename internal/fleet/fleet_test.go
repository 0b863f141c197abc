package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

var _ Orchestrator = (*core.ResourceOrchestrator)(nil)

// fleetSlots is the number of shared SAP pairs every leaf exports: SAP names
// are fleet-wide (only infra uniqueness is enforced at attach), so a chain
// between a pair can be embedded in any member — the precondition for
// failover. One slot per service keeps their flowrules disjoint.
const fleetSlots = 3

func leaf(t testing.TB, name string) *core.LocalOrchestrator {
	t.Helper()
	node := nffg.ID(name + "-n")
	b := nffg.NewBuilder(name).
		BiSBiS(node, name, 2*fleetSlots, nffg.Resources{CPU: 32, Mem: 8192, Storage: 32}, "fw", "dpi")
	port := 1
	for j := 0; j < fleetSlots; j++ {
		in := nffg.ID(fmt.Sprintf("u%din", j))
		out := nffg.ID(fmt.Sprintf("u%dout", j))
		b.SAP(in).Link(fmt.Sprintf("li%d", j), in, "1", node, fmt.Sprint(port), 1000, 1)
		port++
		b.SAP(out).Link(fmt.Sprintf("lo%d", j), node, fmt.Sprint(port), out, "1", 1000, 1)
		port++
	}
	lo, err := core.NewLocalOrchestrator(core.LocalConfig{ID: name, Substrate: b.MustBuild()})
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

// chain builds u<slot>in -> fw -> u<slot>out, optionally pinned to a member's
// view node.
func chain(t testing.TB, id string, slot int, host string) *nffg.NFFG {
	t.Helper()
	nf := nffg.ID(id + "-nf")
	in := nffg.ID(fmt.Sprintf("u%din", slot))
	out := nffg.ID(fmt.Sprintf("u%dout", slot))
	g := nffg.NewBuilder(id).
		SAP(in).SAP(out).
		NF(nf, "fw", 2, nffg.Resources{CPU: 2, Mem: 512, Storage: 2}).
		Chain(id, 10, 0, in, nf, out).
		MustBuild()
	if host != "" {
		g.NFs.Get(nf).Host = nffg.ID(host)
	}
	return g
}

// flakyDomain wraps a real local orchestrator with an injectable View
// failure, so the probe loop sees the domain die while attach-time state
// stays valid.
type flakyDomain struct {
	*core.LocalOrchestrator
	mu   sync.Mutex
	fail bool
}

func (f *flakyDomain) setFail(v bool) {
	f.mu.Lock()
	f.fail = v
	f.mu.Unlock()
}

func (f *flakyDomain) View(ctx context.Context) (*nffg.NFFG, error) {
	f.mu.Lock()
	bad := f.fail
	f.mu.Unlock()
	if bad {
		return nil, errors.New("flaky: injected probe failure")
	}
	return f.LocalOrchestrator.View(ctx)
}

// recordingPauser records pause/resume ordering.
type recordingPauser struct {
	mu     sync.Mutex
	events []string
}

func (p *recordingPauser) PauseShards(keys []string) {
	p.mu.Lock()
	p.events = append(p.events, "pause:"+strings.Join(keys, ","))
	p.mu.Unlock()
}

func (p *recordingPauser) ResumeShards(keys []string) {
	p.mu.Lock()
	p.events = append(p.events, "resume:"+strings.Join(keys, ","))
	p.mu.Unlock()
}

func (p *recordingPauser) log() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.events...)
}

// transitionLog records state transitions via the OnTransition hook.
type transitionLog struct {
	mu     sync.Mutex
	events []string
}

func (l *transitionLog) hook(name string, from, to State) {
	l.mu.Lock()
	l.events = append(l.events, fmt.Sprintf("%s:%s->%s", name, from, to))
	l.mu.Unlock()
}

func (l *transitionLog) log() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.events...)
}

func TestDrainRehomesDisplacedServices(t *testing.T) {
	ctx := context.Background()
	ro := core.NewResourceOrchestrator(core.Config{ID: "mdo"})
	pauser := &recordingPauser{}
	tl := &transitionLog{}
	c := New(Config{
		Orchestrator: ro,
		Admission:    pauser,
		OnTransition: tl.hook,
	})
	for _, name := range []string{"d0", "d1", "d2"} {
		if err := c.Add(ctx, leaf(t, name)); err != nil {
			t.Fatal(err)
		}
	}

	// Two services pinned on the victim, one on a survivor.
	for _, spec := range []struct {
		id   string
		slot int
		host string
	}{
		{"svc-a", 0, "bisbis@d1"}, {"svc-b", 1, "bisbis@d1"}, {"svc-c", 2, "bisbis@d0"},
	} {
		if _, err := ro.Install(ctx, chain(t, spec.id, spec.slot, spec.host)); err != nil {
			t.Fatalf("install %s: %v", spec.id, err)
		}
	}

	report, err := c.Drain(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Displaced) != 2 {
		t.Fatalf("displaced: %+v", report.Displaced)
	}

	// Every displaced service was re-embedded on a survivor under its own ID.
	got := ro.Services()
	if fmt.Sprint(got) != "[svc-a svc-b svc-c]" {
		t.Fatalf("services after failover: %v", got)
	}
	dov, err := ro.DoV()
	if err != nil {
		t.Fatal(err)
	}
	if _, stale := dov.Infras.Lookup("bisbis@d1"); stale {
		t.Fatal("victim infra survived the drain")
	}

	st := c.Stats()
	if st.ServicesRehomed != 2 || st.Drains != 1 || st.Detached != 1 || st.Active != 2 || st.RehomeFailures != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// The admission lane was paused for exactly the failover window.
	if ev := pauser.log(); len(ev) != 2 || ev[0] != "pause:d1" || ev[1] != "resume:d1" {
		t.Fatalf("pauser events: %v", ev)
	}
	// The member walked EVICTING -> DETACHED.
	ev := tl.log()
	if ev[len(ev)-2] != "d1:active->evicting" || ev[len(ev)-1] != "d1:evicting->detached" {
		t.Fatalf("transitions: %v", ev)
	}

	// Gate: detached member refuses, survivors and unmanaged names pass.
	if err := c.gate("d1"); err == nil {
		t.Fatal("gate must refuse the detached member")
	}
	if err := c.gate("d0"); err != nil {
		t.Fatal(err)
	}
	if err := c.gate("not-managed"); err != nil {
		t.Fatal(err)
	}

	// Drain of a detached or unknown member fails typed.
	if _, err := c.Drain(ctx, "d1"); err == nil {
		t.Fatal("double drain must fail")
	}
	if _, err := c.Drain(ctx, "nope"); !errors.Is(err, domain.ErrUnknown) {
		t.Fatalf("unknown drain: %v", err)
	}
}

func TestProbeDrivenEviction(t *testing.T) {
	ctx := context.Background()
	ro := core.NewResourceOrchestrator(core.Config{ID: "mdo"})
	tl := &transitionLog{}
	c := New(Config{
		Orchestrator:  ro,
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  100 * time.Millisecond,
		ProbeRetries:  -1, // probe once per round: the test injects hard failures
		DegradeAfter:  1,
		EvictAfter:    3,
		OnTransition:  tl.hook,
	})
	victim := &flakyDomain{LocalOrchestrator: leaf(t, "d1")}
	if err := c.Add(ctx, leaf(t, "d0")); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Install(ctx, chain(t, "svc-v", 0, "bisbis@d1")); err != nil {
		t.Fatal(err)
	}

	c.Run()
	defer c.Stop()
	victim.setFail(true)

	deadline := time.After(10 * time.Second)
	for {
		st := c.Stats()
		if st.Detached == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("eviction never completed: stats %+v, transitions %v", st, tl.log())
		case <-time.After(5 * time.Millisecond):
		}
	}

	st := c.Stats()
	if st.Evictions != 1 || st.ServicesRehomed != 1 || st.ProbeFailures < uint64(3) {
		t.Fatalf("stats: %+v", st)
	}
	if got := ro.Services(); fmt.Sprint(got) != "[svc-v]" {
		t.Fatalf("service not rehomed: %v", got)
	}
	// The full path was walked: degraded before evicting.
	want := []string{"d1:active->degraded", "d1:degraded->evicting", "d1:evicting->detached"}
	ev := tl.log()
	for _, w := range want {
		found := false
		for _, e := range ev {
			if e == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing transition %s in %v", w, ev)
		}
	}

	// A recovered probe before the threshold heals: re-add the victim under a
	// fresh name and flap it once.
	healer := &flakyDomain{LocalOrchestrator: leaf(t, "d2")}
	if err := c.Add(ctx, healer); err != nil {
		t.Fatal(err)
	}
	healer.setFail(true)
	waitFor(t, func() bool { return c.Stats().Degraded == 1 })
	healer.setFail(false)
	waitFor(t, func() bool { return c.Stats().Degraded == 0 && c.Stats().Active == 2 })
}

func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatal("condition never reached")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestAddRejectsDuplicatesAndFailedAttachLeavesNoMember(t *testing.T) {
	ctx := context.Background()
	ro := core.NewResourceOrchestrator(core.Config{ID: "mdo"})
	c := New(Config{Orchestrator: ro})
	if err := c.Add(ctx, leaf(t, "d0")); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(ctx, leaf(t, "d0")); err == nil {
		t.Fatal("duplicate Add must fail")
	}
	// A domain whose view fetch fails never becomes a member.
	dead := &flakyDomain{LocalOrchestrator: leaf(t, "d9")}
	dead.setFail(true)
	if err := c.Add(ctx, dead); err == nil {
		t.Fatal("attach of unreachable domain must fail")
	}
	if len(c.Status()) != 1 {
		t.Fatalf("status: %+v", c.Status())
	}
	// Gate answers only for managed names.
	if err := c.gate("d9"); err != nil {
		t.Fatalf("failed attach left a gate entry: %v", err)
	}
}

func TestGateBlocksInstallsTargetingEvictedDomain(t *testing.T) {
	ctx := context.Background()
	ro := core.NewResourceOrchestrator(core.Config{ID: "mdo"})
	c := New(Config{Orchestrator: ro})
	for _, name := range []string{"d0", "d1"} {
		if err := c.Add(ctx, leaf(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Drain(ctx, "d1"); err != nil {
		t.Fatal(err)
	}
	// The node is gone AND the gate answers for the name: either way the
	// install must surface the typed unavailability error northbound.
	if _, err := ro.Install(ctx, chain(t, "late", 0, "bisbis@d1")); !errors.Is(err, unify.ErrDomainUnavailable) {
		t.Fatalf("install on drained domain: %v", err)
	}
	if _, err := ro.Install(ctx, chain(t, "ok", 1, "bisbis@d0")); err != nil {
		t.Fatalf("survivor install: %v", err)
	}
}

func TestStopWithoutRun(t *testing.T) {
	ro := core.NewResourceOrchestrator(core.Config{ID: "mdo"})
	c := New(Config{Orchestrator: ro})
	c.Stop() // must not hang or panic
}
