package bench

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	escape "github.com/unify-repro/escape"
	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/service"
	"github.com/unify-repro/escape/internal/unify"
)

// Workload is one named traffic mix. Warmup is a fixed number of cycles
// (bursts for the open loop), not a time, so that every run enters its
// measured window — and takes its live-heap reading — in the same state.
type Workload struct {
	Name    string
	Why     string
	Topo    Topology // zero for fig1_chain, which builds the Figure-1 system
	Durable bool
	Warmup  int
	drive   func(e *env, ctx context.Context, ph phase)
}

// Workloads are the five of BENCHMARK.json, in its order.
var Workloads = []Workload{
	{
		Name:   "local_chain",
		Why:    "fast path: 2-NF chain inside one domain, single-shard commit, batches of 1 or 2; fixed per-request overhead (HTTP x2, two admission windows, shard copy) dominates",
		Topo:   Ring16,
		Warmup: 120,
		drive:  func(e *env, ctx context.Context, ph phase) { e.closedLoop(ctx, ph, 2, e.localCycle) },
	},
	{
		Name:   "transit_chain",
		Why:    "slow path: 3-NF chain across a transit domain the shard estimate misses; escalation to the full DoV, merge, path search, two-phase commit, fan-out to 4 or 5 children",
		Topo:   Ring8,
		Warmup: 25,
		drive:  func(e *env, ctx context.Context, ph phase) { e.closedLoop(ctx, ph, 2, e.transitCycle) },
	},
	{
		Name:   "read_churn",
		Why:    "reads beside writes: one writer cycling local chains, one reader fetching the MdO view back to back; every commit invalidates the merged cut, the view and its encoding",
		Topo:   Ring16,
		Warmup: 60,
		drive:  (*env).readChurn,
	},
	{
		Name:    "durable_burst",
		Why:     "open loop, 12 async submits every 100 ms, mice and elephants, journal on: the only workload where a queue forms, so coalescing, DWRR, lanes and the WAL do real work",
		Topo:    Ring16,
		Durable: true,
		Warmup:  15,
		drive:   (*env).openLoop,
	},
	{
		Name:   "fig1_chain",
		Why:    "the paper's Figure-1 stack in-process: service layer, MdO, real NETCONF/OpenFlow/REST adapters and the dataplane; tiny graphs, no HTTP; must not move when big-DoV paths are optimised",
		Warmup: 300,
		drive:  func(e *env, ctx context.Context, ph phase) { e.closedLoop(ctx, ph, 1, e.fig1Cycle) },
	},
}

// WorkloadByName finds a workload of the list above.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// The open loop's schedule and its tenants (the scenario's 4:1 weights).
const (
	burstSize  = 12
	burstEvery = 100 * time.Millisecond
	sloLimit   = 100 * time.Millisecond
)

var tenantWeights = map[string]int{
	"mouse-0": 4, "mouse-1": 4, "mouse-2": 4, "mouse-3": 4,
	"elephant-0": 1, "elephant-1": 1, "elephant-2": 1, "elephant-3": 1,
}

// newRand derives one deterministic stream per (seed, purpose, index).
func newRand(seed int64, purpose string, idx int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, purpose, idx)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// phase bounds one drive of the clients: exactly Cycles cycles per client
// (bursts, for the open loop) when set, otherwise until For has elapsed.
type phase struct {
	Cycles int
	For    time.Duration
}

// over reports whether a client that has completed done cycles stops.
func (p phase) over(done int, start time.Time) bool {
	if p.Cycles > 0 {
		return done >= p.Cycles
	}
	return time.Since(start) >= p.For
}

// series is a sample of durations in milliseconds, each stamped with how many
// seconds into the phase it was recorded, so a window can be cut into slices.
type series struct{ ms, at []float64 }

// recorder collects what the load generator observes during one phase.
type recorder struct {
	mu         sync.Mutex
	start      time.Time
	edges      []edge // a timed phase: where its slices begin and end
	install    series // request sent (open loop: due) to deployed
	remove     series
	view       series
	schedLate  series // open loop: send began this long after due
	reaperLag  series // open loop: finish observed this long after it
	attempted  int
	failed     int
	busyRetry  int
	scheduled  int // open loop: installs the schedule called for
	withinSLO  int // of those, deployed within sloLimit of their due time
	firstError error
}

func (r *recorder) add(dst *series, d time.Duration) {
	at := time.Since(r.start).Seconds()
	r.mu.Lock()
	dst.ms = append(dst.ms, float64(d)/float64(time.Millisecond))
	dst.at = append(dst.at, at)
	r.mu.Unlock()
}

// count adds one to a counter of the recorder.
func (r *recorder) count(n *int) {
	r.mu.Lock()
	*n++
	r.mu.Unlock()
}

// op counts one attempted operation and, when err is set, its failure.
func (r *recorder) op(err error) {
	r.mu.Lock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstError == nil {
			r.firstError = err
		}
	}
	r.mu.Unlock()
}

// env is one built system plus the generator's own state.
type env struct {
	w     Workload
	seed  int64
	rate  float64 // open loop: installs per second
	tr    *Tracer
	stack *Stack // the four HTTP workloads
	fig1  *fig1System
	dir   string // durable_burst: the journal's data dir
	slots *slots
	rec   *recorder
	seq   atomic.Int64 // request ID counter, never reused within a run
	// ringStart is where transit_chain's walk around the ring begins.
	ringStart int
}

func (e *env) nextID(prefix string) string {
	return fmt.Sprintf("%s%06d", prefix, e.seq.Add(1))
}

// cycle is one closed-loop iteration of client c: an install paired with its
// remove, so occupancy stays at the resident set.
type cycle func(ctx context.Context, c int, i int, rng *rand.Rand)

// closedLoop runs the given number of clients, each issuing its next cycle
// only after the previous one completed.
func (e *env) closedLoop(ctx context.Context, ph phase, clients int, do cycle) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := newRand(e.seed, e.w.Name, c)
			for i := 0; !ph.over(i, e.rec.start) && ctx.Err() == nil; i++ {
				do(ctx, c, i, rng)
			}
		}(c)
	}
	wg.Wait()
}

// installRemove times one install and its paired remove against the HTTP
// stack. unify.ErrBusy is retried like a real client would; the latency the
// client sees includes its retries.
func (e *env) installRemove(ctx context.Context, req *nffg.NFFG) {
	span := e.tr.Begin(spanClientInstall, req.ID)
	t0 := time.Now()
	var err error
	for try := 0; ; try++ {
		octx, cancel := context.WithTimeout(ctx, opTimeout)
		_, err = e.stack.Client.Install(octx, req)
		cancel()
		if !errors.Is(err, unify.ErrBusy) || try == 8 {
			break
		}
		e.rec.count(&e.rec.busyRetry)
	}
	took := time.Since(t0)
	e.tr.End(span)
	e.rec.op(err)
	if err != nil {
		return
	}
	e.rec.add(&e.rec.install, took)
	e.timedRemove(ctx, req.ID, e.stack.Client.Remove)
}

func (e *env) timedRemove(ctx context.Context, id string, remove func(context.Context, string) error) {
	span := e.tr.Begin(spanClientRemove, id)
	t0 := time.Now()
	octx, cancel := context.WithTimeout(ctx, opTimeout)
	err := remove(octx, id)
	took := time.Since(t0)
	cancel()
	e.tr.End(span)
	e.rec.op(err)
	if err == nil {
		e.rec.add(&e.rec.remove, took)
	}
}

// localCycle: a 2-NF chain between the two SAPs of one free pair.
func (e *env) localCycle(ctx context.Context, c, _ int, rng *rand.Rand) {
	d := rng.Intn(e.w.Topo.Domains)
	k, ok := e.slots.take(d)
	if !ok {
		e.rec.op(fmt.Errorf("no free pair in %s", domainID(d)))
		return
	}
	defer e.slots.give(d, k)
	e.installRemove(ctx, chain(e.nextID("lc"), sapA(d, k), sapZ(d, k), 2, 10, rng))
}

// transitCycle: a 3-NF chain from domain d to domain d+2, which has to cross
// d+1. The two clients walk the ring from opposite sides; the seed picks
// where the walk starts.
func (e *env) transitCycle(ctx context.Context, c, i int, rng *rand.Rand) {
	n := e.w.Topo.Domains
	d := (e.ringStart + c*n/2 + i) % n
	k, ok := e.slots.take(d)
	if !ok {
		e.rec.op(fmt.Errorf("no free pair in %s", domainID(d)))
		return
	}
	defer e.slots.give(d, k)
	// Pair k of domain d owns the "a" SAP there and the "z" SAP two domains on.
	e.installRemove(ctx, chain(e.nextID("tc"), sapA(d, k), sapZ((d+2)%n, k), 3, 10, rng))
}

// readChurn: one local_chain writer beside one reader that fetches the MdO's
// view (a conditional GET) back to back and validates every graph returned.
func (e *env) readChurn(ctx context.Context, ph phase) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			span := e.tr.Begin(spanClientView, fmt.Sprintf("view%06d", n))
			t0 := time.Now()
			octx, cancel := context.WithTimeout(ctx, opTimeout)
			v, err := e.stack.Client.View(octx)
			cancel()
			took := time.Since(t0)
			e.tr.End(span)
			if err == nil {
				err = v.Validate()
			}
			e.rec.op(err)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				continue
			}
			e.rec.add(&e.rec.view, took)
		}
	}()
	e.closedLoop(ctx, ph, 1, e.localCycle)
	close(stop)
	wg.Wait()
}

// submitted is one open-loop install on its way from the submitter to the
// reaper.
type submitted struct {
	id    string
	d, k  int
	jobID string
	due   time.Time
	span  int
}

// openLoop sends bursts on a fixed schedule whether or not earlier requests
// have completed; a second goroutine waits for the jobs in submission order
// and removes what they deployed. Latency counts from when a request was due.
func (e *env) openLoop(ctx context.Context, ph phase) {
	every := time.Duration(float64(burstSize) / e.rate * float64(time.Second))
	// Sized for every request of the longest window: the submitter never
	// blocks on the reaper, which is what makes the loop open.
	queue := make(chan submitted, 1<<16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range queue {
			e.reap(ctx, p)
		}
	}()
	rng := newRand(e.seed, e.w.Name, 0)
	for b := 0; !ph.over(b, e.rec.start) && ctx.Err() == nil; b++ {
		due := e.rec.start.Add(time.Duration(b) * every)
		time.Sleep(time.Until(due))
		for i := 0; i < burstSize; i++ {
			e.submit(ctx, due, rng, queue)
		}
	}
	close(queue)
	<-done
}

func (e *env) submit(ctx context.Context, due time.Time, rng *rand.Rand, queue chan<- submitted) {
	class, nfs, bw := "mouse", 1, 5.0
	if rng.Intn(2) == 1 {
		class, nfs, bw = "elephant", 4, 40.0
	}
	tenant := fmt.Sprintf("%s-%d", class, rng.Intn(4))
	d := rng.Intn(e.w.Topo.Domains)
	e.rec.count(&e.rec.scheduled)
	k, ok := e.slots.take(d)
	if !ok {
		e.rec.op(fmt.Errorf("no free pair in %s: the system is not keeping up", domainID(d)))
		return
	}
	req := chain(e.nextID("db"), sapA(d, k), sapZ(d, k), nfs, bw, rng)
	span := e.tr.Begin(spanClientInstall, req.ID)
	e.tr.SetStart(span, due)
	e.rec.add(&e.rec.schedLate, time.Since(due))
	octx, cancel := context.WithTimeout(unify.WithMeta(ctx, unify.RequestMeta{Tenant: tenant}), opTimeout)
	job, err := e.stack.Client.SubmitAsync(octx, req)
	cancel()
	if err != nil { // refused at intake (queue full) or a transport failure
		e.tr.End(span)
		e.rec.op(err)
		e.slots.give(d, k)
		return
	}
	queue <- submitted{id: req.ID, d: d, k: k, jobID: job.ID, due: due, span: span}
}

func (e *env) reap(ctx context.Context, p submitted) {
	octx, cancel := context.WithTimeout(ctx, opTimeout)
	job, err := e.stack.Client.WaitJob(octx, p.jobID)
	cancel()
	seen := time.Now()
	if err == nil && job.State != admission.StateDeployed {
		err = fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	if err != nil {
		e.tr.End(p.span)
		e.rec.op(err)
		if job.State.Terminal() { // nothing deployed, so the pair is free again
			e.slots.give(p.d, p.k)
		}
		return
	}
	e.tr.EndAt(p.span, job.Finished)
	e.rec.op(nil)
	lat := job.Finished.Sub(p.due)
	e.rec.add(&e.rec.install, lat)
	e.rec.add(&e.rec.reaperLag, seen.Sub(job.Finished))
	if lat <= sloLimit {
		e.rec.count(&e.rec.withinSLO)
	}
	e.timedRemove(ctx, p.id, e.stack.Client.Remove)
	e.slots.give(p.d, p.k)
}

// --- fig1_chain -----------------------------------------------------------------

// fig1System is the paper's Figure-1 system and the service layer the cycles
// go through. Undecorated that is the system's own; traced, a second control
// plane wired exactly as NewFig1System wires it, over the same four domains,
// with the recording decorators between the layers.
type fig1System struct {
	sys     *escape.Fig1System
	mdo     *core.ResourceOrchestrator
	service *service.Orchestrator
}

func newFig1System(tr *Tracer) (*fig1System, error) {
	sys, err := escape.NewFig1System(escape.Fig1Options{})
	if err != nil {
		return nil, err
	}
	f := &fig1System{sys: sys, mdo: sys.MdO, service: sys.Service}
	if tr == nil {
		return f, nil
	}
	f.mdo = core.NewResourceOrchestrator(core.Config{ID: "mdo", Virtualizer: core.SingleBiSBiS{NodeID: "bisbis@mdo"}})
	for _, d := range f.domains() {
		if err := f.mdo.Attach(context.Background(), tracedDomain{d, tr, spanLOInstall, spanLORemove}); err != nil {
			sys.Close()
			return nil, err
		}
	}
	f.service = service.NewOrchestrator(tracedRO{f.mdo, tr}, nil)
	return f, nil
}

func (f *fig1System) domains() []domain.Domain {
	return []domain.Domain{f.sys.Mininet, f.sys.SDN, f.sys.OpenStack, f.sys.UN}
}

// fig1Cycle submits the demo chain (firewall on Mininet, DPI on OpenStack,
// compression on the UN) through the service layer and removes it. Every
// 500th cycle, outside the timed sections, one packet has to cross all three
// NFs: the deployment is checked where it matters, on the dataplane.
func (e *env) fig1Cycle(ctx context.Context, _, i int, _ *rand.Rand) {
	id := e.nextID("f1")
	req, err := e.fig1.sys.DemoChain(id, 10)
	if err != nil {
		e.rec.op(err)
		return
	}
	span := e.tr.Begin(spanClientInstall, id)
	t0 := time.Now()
	octx, cancel := context.WithTimeout(ctx, opTimeout)
	_, err = e.fig1.service.Submit(octx, req)
	took := time.Since(t0)
	cancel()
	e.tr.End(span)
	e.rec.op(err)
	if err != nil {
		return
	}
	e.rec.add(&e.rec.install, took)
	if i%500 == 0 {
		e.rec.op(e.fig1.checkPacket(id))
	}
	e.timedRemove(ctx, id, e.fig1.service.Remove)
}

// checkPacket sends one packet sap1 -> sap2 and requires exactly one delivery
// whose trace names the three NFs of service id.
func (f *fig1System) checkPacket(id string) error {
	sap1, err := f.sys.SAP1()
	if err != nil {
		return err
	}
	sap2, err := f.sys.SAP2()
	if err != nil {
		return err
	}
	before := len(sap2.Received())
	sap1.Send("sap2", 500)
	f.sys.Engine.RunToIdle()
	got := sap2.Received()[before:]
	if len(got) != 1 {
		return fmt.Errorf("fig1 %s: %d packets delivered, want 1", id, len(got))
	}
	trace := strings.Join(got[0].Trace, ",")
	for _, nf := range []string{"-fw", "-dpi", "-comp"} {
		if !strings.Contains(trace, id+nf) {
			return fmt.Errorf("fig1 %s: packet trace %q misses %s", id, trace, id+nf)
		}
	}
	return nil
}
