package bench

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/journal"
	"github.com/unify-repro/escape/internal/nffg"
)

// Options select one run of one workload.
type Options struct {
	Workload Workload
	Seed     int64
	// Window is the measured window. A traced run spends its first third
	// with the tracer off, as the reference the overhead is measured against.
	Window time.Duration
	// Traced builds the decorated stack and reports the per-layer metrics;
	// otherwise the stack is undecorated and the end-to-end metrics are
	// reported.
	Traced bool
	// Rate steps the open loop off its 120 installs per second, for capacity
	// exploration by hand; results carry it and stay out of comparisons.
	Rate float64
	// DataRoot is where durable_burst creates its journal directory
	// (default: /dev/shm when present, so that the metric measures the
	// program and not the sandbox's disk; else the system's temp dir).
	DataRoot string
}

// Result is what one run reports.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Rate      float64           `json:"rate,omitempty"` // set by a rate ladder only
	WindowS   float64           `json:"window_s"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	DataDir   string            `json:"data_dir,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	Spans     []Span            `json:"-"`
}

func (e *env) mdo() *core.ResourceOrchestrator {
	if e.fig1 != nil {
		return e.fig1.mdo
	}
	return e.stack.MdO
}

// setUp builds the workload's system, residents included.
func setUp(o Options, tr *Tracer) (*env, error) {
	e := &env{w: o.Workload, seed: o.Seed, rate: o.Rate, tr: tr}
	if e.rate == 0 {
		e.rate = burstSize / burstEvery.Seconds()
	}
	if o.Workload.Topo.Domains == 0 {
		f, err := newFig1System(tr)
		e.fig1 = f
		return e, err
	}
	e.slots = newSlots(o.Workload.Topo)
	e.ringStart = newRand(o.Seed, "ring-start", 0).Intn(o.Workload.Topo.Domains)
	cfg := StackConfig{Topo: o.Workload.Topo, Tracer: tr}
	if o.Workload.Durable {
		root := o.DataRoot
		if root == "" {
			if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
				root = "/dev/shm"
			}
		}
		dir, err := os.MkdirTemp(root, "unifybench-journal-")
		if err != nil {
			return nil, err
		}
		e.dir, cfg.DataDir, cfg.TenantWeights = dir, dir, tenantWeights
	}
	s, err := NewStack(cfg)
	if err != nil {
		e.tearDown()
		return nil, err
	}
	e.stack = s
	if err := s.Preload(context.Background(), o.Seed); err != nil {
		e.tearDown()
		return nil, err
	}
	return e, nil
}

// tearDown stops everything setUp started and deletes the journal directory.
func (e *env) tearDown() {
	if e.stack != nil {
		e.stack.Close()
	}
	if e.fig1 != nil {
		e.fig1.sys.Close()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

// run drives one phase into a fresh recorder. The context it hands the
// clients expires at twice the phase's length, so a saturated system yields a
// failed run rather than a hung one: past that, every operation fails at
// once and the clients stop.
func (e *env) run(ph phase) (*recorder, error) {
	limit := 2*ph.For + 10*time.Second
	if ph.Cycles > 0 {
		limit = 60 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	e.rec = &recorder{start: time.Now()}
	var edges sync.WaitGroup
	if ph.For > 0 {
		edges.Add(1)
		go func() {
			defer edges.Done()
			e.rec.markEdges(ctx, ph.For)
		}()
	}
	e.w.drive(e, ctx, ph)
	edges.Wait()
	if ctx.Err() != nil {
		return e.rec, fmt.Errorf("phase overran %s: torn down", limit)
	}
	return e.rec, nil
}

// check compares what the layers hold with the resident set: nothing
// leaked, nothing lost, every shard generation a counted commit, no merge or
// journal error. It runs on the idle system, before tearDown.
func (e *env) check() (problems []string) {
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	want := e.w.Topo.ResidentIDs()
	mdo := e.mdo()
	if got := mdo.Services(); !sameIDs(got, want) {
		fail("MdO holds %d services, want the %d residents", len(got), len(want))
	}
	if e.fig1 != nil {
		for _, d := range e.fig1.domains() {
			if got := d.Services(); len(got) != 0 {
				fail("domain %s still holds %v", d.ID(), got)
			}
		}
	} else {
		for d, l := range e.stack.Leaves {
			var want []string
			for k := 0; k < e.w.Topo.Residents; k++ {
				want = append(want, residentID(d, k)+"#"+domainID(d))
			}
			if got := l.LO.Services(); !sameIDs(got, want) {
				fail("leaf %s holds %d services, want its %d residents", domainID(d), len(got), len(want))
			}
		}
		if n := e.stack.Queue.Stats().JournalErrors; n != 0 {
			fail("%d job-journal errors", n)
		}
	}
	for _, s := range mdo.ShardStats() {
		if s.Gen != s.Commits {
			fail("shard %s: generation %d but %d commits", s.Shard, s.Gen, s.Commits)
		}
	}
	if p := mdo.PipelineStats(); p.MergeErrors != 0 || p.JournalErrors != 0 {
		fail("%d merge errors, %d journal errors", p.MergeErrors, p.JournalErrors)
	}
	return problems
}

// checkRecovery replays the closed journal: it has to restore exactly the
// resident services.
func (e *env) checkRecovery() []string {
	st, info, err := journal.Recover(e.dir)
	if err != nil {
		return []string{"journal recovery: " + err.Error()}
	}
	var got []string
	for _, s := range st.Services {
		if s.Deployed {
			got = append(got, s.ServiceID)
		}
	}
	if want := e.w.Topo.ResidentIDs(); !sameIDs(got, want) || len(info.Errors) != 0 {
		return []string{fmt.Sprintf("journal recovery restored %d deployed services (%d replay errors), want the %d residents",
			len(got), len(info.Errors), len(want))}
	}
	return nil
}

// sameIDs compares two ID lists as sets.
func sameIDs(got, want []string) bool {
	return slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want)))
}

// sample builds one request of the workload's kind for the kernel timings,
// on a pair no service holds.
func (e *env) sample() (*nffg.NFFG, error) {
	rng := newRand(e.seed, "sample", 0)
	t := e.w.Topo
	switch e.w.Name {
	case "fig1_chain":
		return e.fig1.sys.DemoChain("sample", 10)
	case "transit_chain":
		return chain("sample", sapA(0, t.Residents), sapZ(2, t.Residents), 3, 10, rng), nil
	default:
		return chain("sample", sapA(0, t.Residents), sapZ(0, t.Residents), 2, 10, rng), nil
	}
}

// Set-up is repeated and setup_s is the median: at least minSetups times, and
// for the systems that build in milliseconds until a tenth of the window's
// length is spent, so that the median rests on more than three readings of a
// short time. A traced run sets up once.
const (
	minSetups = 3
	maxSetups = 50
)

// Run performs one run: set-up, warm-up, measured window, checks, tear-down.
func Run(o Options) (*Result, error) {
	res := &Result{Workload: o.Workload.Name, Seed: o.Seed, Traced: o.Traced, Rate: o.Rate, WindowS: o.Window.Seconds()}
	var tr *Tracer
	m := newMetricSet(EndToEnd)
	if o.Traced {
		tr, m = NewTracer(), newMetricSet(append(EndToEnd[:len(EndToEnd):len(EndToEnd)], Layers...))
	}

	// Set-up, as timed: build, attach and resident preload, up to the first
	// warm-up operation. The last system built is the one measured.
	var e *env
	var setups []float64
	for began := time.Now(); ; {
		t0 := time.Now()
		var err error
		if e, err = setUp(o, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if n := len(setups); o.Traced || n == maxSetups || n >= minSetups && time.Since(began) >= o.Window/10 {
			break
		}
		e.tearDown()
	}
	defer e.tearDown()
	res.DataDir = e.dir
	m.set("setup_s", quantile(setups, 0.5), len(setups))
	if _, err := e.run(phase{Cycles: o.Workload.Warmup}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// Collect what set-up and warm-up left, so the window starts from the
	// same heap every run; what is still live is the cost of holding the
	// resident set, its caches and a fixed number of finished requests. Twice,
	// because a sync.Pool gives its buffers up over two cycles.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.set("heap_live_mb", float64(ms.HeapAlloc)/(1<<20))

	var rec *recorder
	var overrun error
	if !o.Traced {
		rec, overrun = e.run(phase{For: o.Window})
		endToEnd(m, rec)
	} else {
		ref, err := e.run(phase{For: o.Window / 3})
		if err != nil {
			return nil, fmt.Errorf("untraced reference window: %w", err)
		}
		res.Attempted, res.Failed = ref.attempted, ref.failed
		goroutinePeak := watchGoroutines()
		a := e.counters()
		tr.Enable(true)
		rec, overrun = e.run(phase{For: o.Window - o.Window/3})
		tr.Enable(false)
		b := e.counters()
		goroutines := goroutinePeak()
		if e.stack != nil {
			tr.AddWaits(spanClientInstall, e.stack.Queue.Jobs())
			for _, l := range e.stack.Leaves {
				tr.AddWaits(spanChildInstall, l.Queue.Jobs())
			}
		}
		res.Spans = tr.Spans()
		endToEnd(m, rec)
		perLayer(m, rec, a, b, analyze(res.Spans))
		m.set("runtime.goroutines_peak", float64(goroutines))
		m.set("trace.overhead_pct", 100*(ratio(quantile(rec.install.ms, 0.5), quantile(ref.install.ms, 0.5))-1))
		if overrun == nil {
			sample, err := e.sample()
			if err == nil {
				err = e.kernels(m, sample)
			}
			if err != nil {
				res.Problems = append(res.Problems, err.Error())
			}
		}
	}

	res.Attempted, res.Failed = res.Attempted+rec.attempted, res.Failed+rec.failed
	if overrun != nil {
		res.Problems = append(res.Problems, overrun.Error())
	} else {
		res.Problems = append(res.Problems, e.check()...)
	}
	if rec.firstError != nil {
		res.Problems = append(res.Problems, "first failed operation: "+rec.firstError.Error())
	}
	if e.w.Durable && overrun == nil {
		e.stack.Close()
		res.Problems = append(res.Problems, e.checkRecovery()...)
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0 && rec.attempted > 0
	res.Metrics = m.out
	return res, nil
}

// watchGoroutines samples the goroutine count until the returned function is
// called, which reports the peak.
func watchGoroutines() func() int {
	stop := make(chan struct{})
	var peak int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()
	return func() int {
		close(stop)
		wg.Wait()
		return peak
	}
}
