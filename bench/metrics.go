package bench

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/journal"
	"github.com/unify-repro/escape/internal/obs"
)

// Metric is one reported number. N is the sample count behind a timing.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// MetricDef declares a metric of BENCHMARK.json.
type MetricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is by how much the median of an end-to-end metric may get worse
	// before a change counts as a regression: a share of the base median, or
	// for the ratios whose base can be 0 (Abs) a difference. Layer metrics
	// carry none.
	Bound float64 `json:"bound,omitempty"`
	Abs   bool    `json:"-"`
	// Only names the one workload an end-to-end metric applies to; elsewhere
	// it reads 0. Empty: every workload yields it.
	Only string `json:"-"`
	// Wide marks a metric whose run-to-run spread on a shared two-core box
	// came within half of the widest bound the harness accepts (a quarter) on
	// some workload, too close for the harness to hold it to one; README.md has
	// the measurements. It keeps the issue's bound for -compare.
	Wide bool `json:"-"`
}

// EndToEnd is what a tenant of the orchestrator sees and a later change is
// held to. Every run reports all twelve and -compare gates all twelve. The
// bounds are what this box can resolve, not what one would wish for: the
// harness refuses a bound narrower than the spread of ten runs.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "install_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, Wide: true},
	{Name: "install_ms_p95", Unit: "ms", Better: "lower", Bound: 0.20, Wide: true},
	{Name: "remove_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "installs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_install", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_install", Unit: "KB", Better: "lower", Bound: 0.12},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "view_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, Only: "read_churn"},
	{Name: "view_ms_p90", Unit: "ms", Better: "lower", Bound: 0.20, Only: "read_churn"},
	{Name: "slo_share", Unit: "ratio", Better: "higher", Bound: 0.02, Abs: true, Only: "durable_burst"},
	{Name: "fail_share", Unit: "ratio", Better: "lower", Bound: 0, Abs: true},
}

// harnessGated: the harness wants every metric it gates from every workload,
// never 0, and steadier than its bound. That leaves out the metrics of one
// workload, the ratios that are 0 when all is well, and the wide ones.
func (d MetricDef) harnessGated() bool { return d.Only == "" && !d.Abs && !d.Wide }

// Harness is BENCHMARK.json's end_to_end.
func Harness() (defs []MetricDef) {
	for _, d := range EndToEnd {
		if d.harnessGated() {
			defs = append(defs, d)
		}
	}
	return defs
}

// PerLayer is BENCHMARK.json's per_layer: what is left of EndToEnd, without
// the bounds, then the layers' own metrics.
func PerLayer() (defs []MetricDef) {
	for _, d := range EndToEnd {
		if !d.harnessGated() {
			d.Bound = 0
			defs = append(defs, d)
		}
	}
	return append(defs, Layers...)
}

// Layers is what the traced run's spans, the layers' own stats snapshots and
// the kernel timings give. A metric that does not apply to a workload reads 0.
var Layers = []MetricDef{
	{Name: "loadgen.sched_late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "loadgen.reaper_lag_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "loadgen.busy_retries", Unit: "count", Better: "lower"},
	{Name: "loadgen.install_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "api.north_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "api.south_hop_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "api.view_bytes", Unit: "bytes", Better: "lower"},
	{Name: "admission.wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "admission.leaf_wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "admission.batch_mean", Unit: "count", Better: "higher"},
	{Name: "admission.batch_max", Unit: "count", Better: "higher"},
	{Name: "admission.depth_max", Unit: "count", Better: "lower"},
	{Name: "admission.dropped", Unit: "count", Better: "lower"},
	{Name: "core.ro.batch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.ro.self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.ro.remove_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.ro.view_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.ro.map_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "core.ro.commit_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "core.ro.map_passes_per_install", Unit: "ratio", Better: "lower"},
	{Name: "core.ro.conflicts_per_install", Unit: "ratio", Better: "lower"},
	{Name: "core.ro.escalations_per_install", Unit: "ratio", Better: "lower"},
	{Name: "core.ro.multishard_share", Unit: "ratio", Better: "lower"},
	{Name: "core.ro.busy", Unit: "count", Better: "lower"},
	{Name: "core.ro.cut_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "core.ro.view_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "core.fanout.child_install_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.fanout.child_remove_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.fanout.children_per_install", Unit: "ratio", Better: "lower"},
	{Name: "core.lo.install_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.lo.self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.lo.remove_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "southbound.commit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "southbound.deltas_per_install", Unit: "ratio", Better: "lower"},
	{Name: "southbound.flowmods_per_barrier", Unit: "ratio", Better: "higher"},
	{Name: "southbound.netconf_rpcs_per_delta", Unit: "ratio", Better: "lower"},
	{Name: "southbound.delta_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "journal.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "journal.appends_per_install", Unit: "ratio", Better: "lower"},
	{Name: "journal.bytes_per_install", Unit: "bytes", Better: "lower"},
	{Name: "journal.fsync_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "journal.checkpoints", Unit: "count", Better: "lower"},
	{Name: "journal.checkpoint_ms_max", Unit: "ms", Better: "lower"},
	{Name: "nffg.copy_us", Unit: "us", Better: "lower"},
	{Name: "nffg.copy_allocs", Unit: "count", Better: "lower"},
	{Name: "nffg.merge_us", Unit: "us", Better: "lower"},
	{Name: "nffg.merge_allocs", Unit: "count", Better: "lower"},
	{Name: "nffg.encode_us", Unit: "us", Better: "lower"},
	{Name: "nffg.decode_us", Unit: "us", Better: "lower"},
	{Name: "embed.map_us", Unit: "us", Better: "lower"},
	{Name: "embed.map_allocs", Unit: "count", Better: "lower"},
	{Name: "embed.apply_us", Unit: "us", Better: "lower"},
	{Name: "topo.shortest_path_us", Unit: "us", Better: "lower"},
	{Name: "core.virtualizer.view_us", Unit: "us", Better: "lower"},
	{Name: "core.virtualizer.view_allocs", Unit: "count", Better: "lower"},
	{Name: "service.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "runtime.mallocs_per_install", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.goroutines_peak", Unit: "count", Better: "lower"},
	{Name: "trace.coverage_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metricSet collects a run's metrics against one of the tables above, so a
// name or unit can only be reported as declared.
type metricSet struct {
	defs map[string]MetricDef
	out  map[string]Metric
}

func newMetricSet(defs []MetricDef) *metricSet {
	m := &metricSet{defs: map[string]MetricDef{}, out: map[string]Metric{}}
	for _, d := range defs {
		m.defs[d.Name] = d
		m.out[d.Name] = Metric{Unit: d.Unit}
	}
	return m
}

func (m *metricSet) set(name string, v float64, n ...int) {
	d, ok := m.defs[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	mt := Metric{Value: v, Unit: d.Unit}
	if len(n) > 0 {
		mt.N = n[0]
	}
	m.out[name] = mt
}

// timing reports the q-quantile of a sample with its count.
func (m *metricSet) timing(name string, sample []float64, q float64) {
	m.set(name, quantile(sample, q), len(sample))
}

// quantile is the nearest-rank q-quantile (0 for an empty sample).
func quantile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	sorted := slices.Sorted(slices.Values(sample))
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	var sum float64
	for _, v := range sample {
		sum += v
	}
	return sum / float64(len(sample))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const msPerNS = 1e-6

// --- counters read at the window's edges ------------------------------------------

// counters is everything cumulative the process and the layers' own public
// snapshot functions expose; metrics are differences of two of them.
type counters struct {
	mem   runtime.MemStats
	pipe  core.PipelineStats
	roMap obs.HistogramSnapshot
	roCmt obs.HistogramSnapshot
	adm   admission.Stats
	wait  obs.HistogramSnapshot // MdO admission wait
	leaf  obs.HistogramSnapshot // the leaves' admission waits, merged
	south core.SouthboundStats  // the leaves' (fig1: the domains') recorders, merged
	jrnl  journal.Stats
	fsync obs.HistogramSnapshot
	ckpt  obs.HistogramSnapshot
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (e *env) counters() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	mdo := e.mdo()
	c.pipe = mdo.PipelineStats()
	h := mdo.StageHistograms()
	c.roMap, c.roCmt = h["map"], h["commit"]
	if e.fig1 != nil {
		for _, d := range e.fig1.domains() {
			c.south.Merge(d.(core.SouthboundStatsProvider).SouthboundStats())
		}
		return c
	}
	s := e.stack
	c.adm = s.Queue.Stats()
	c.wait = s.Queue.StageHistograms()["admission_wait"]
	for _, l := range s.Leaves {
		c.leaf.Merge(l.Queue.StageHistograms()["admission_wait"])
		c.south.Merge(l.LO.SouthboundStats())
	}
	if s.Store != nil {
		c.jrnl = s.Store.Stats()
		jh := s.Store.StageHistograms()
		c.fsync, c.ckpt = jh["journal_fsync"], jh["journal_checkpoint"]
	}
	return c
}

// histDelta is what a histogram recorded between two snapshots.
func histDelta(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Count: b.Count - a.Count, SumNS: b.SumNS - a.SumNS}
	for i := range d.Buckets {
		d.Buckets[i] = b.Buckets[i] - a.Buckets[i]
	}
	return d
}

func histMeanMS(a, b obs.HistogramSnapshot) float64 {
	return float64(histDelta(a, b).Mean()) * msPerNS
}

func dropped(s admission.Stats) (n uint64) {
	for _, t := range s.Tenants {
		n += t.Dropped
	}
	return n
}

// --- slices --------------------------------------------------------------------------
//
// A timed window is cut into equal slices and every rate, timing and
// per-install cost is taken per slice; the run reports the median slice. A
// neighbour on the host, a checkpoint or a burst of GC work that slows a
// second or two of the window moves a whole-window mean (and owns a
// whole-window p95) but leaves the median slice where it was.
const sliceCount = 10

// edge is one boundary between slices: when it was marked, in seconds into the
// phase, and the process's cumulative CPU time and allocated bytes then.
type edge struct {
	at    float64
	cpu   time.Duration
	alloc uint64
}

// markEdges marks the sliceCount+1 boundaries of a window as they come due.
func (r *recorder) markEdges(ctx context.Context, window time.Duration) {
	for k := 0; k <= sliceCount; k++ {
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Until(r.start.Add(window * time.Duration(k) / sliceCount))):
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.edges = append(r.edges, edge{at: time.Since(r.start).Seconds(), cpu: processCPU(), alloc: ms.TotalAlloc})
	}
}

// cut sorts a series into the window's slices by when each sample was
// recorded; what finished after the last edge (the drain) is in none.
func (r *recorder) cut(s series) [][]float64 {
	out := make([][]float64, max(0, len(r.edges)-1))
	for i, at := range s.at {
		k := sort.Search(len(r.edges), func(k int) bool { return r.edges[k].at > at }) - 1
		if k >= 0 && k < len(out) {
			out[k] = append(out[k], s.ms[i])
		}
	}
	return out
}

// sliced reports the median over the slices of each slice's q-quantile,
// with the whole sample's count. Slices without a sample have no quantile.
func (m *metricSet) sliced(name string, rec *recorder, s series, q float64) {
	var qs []float64
	for _, ms := range rec.cut(s) {
		if len(ms) > 0 {
			qs = append(qs, quantile(ms, q))
		}
	}
	m.set(name, quantile(qs, 0.5), len(s.ms))
}

// perInstall reports the median over the slices of what a cumulative reading
// of the edges grew by in the slice, divided by the installs deployed in it.
func (r *recorder) perInstall(reading func(edge) float64) float64 {
	var v []float64
	for k, ms := range r.cut(r.install) {
		if len(ms) > 0 {
			v = append(v, (reading(r.edges[k+1])-reading(r.edges[k]))/float64(len(ms)))
		}
	}
	return quantile(v, 0.5)
}

// --- end-to-end --------------------------------------------------------------------

// endToEnd fills what a window gives of the end-to-end metrics: everything
// but setup_s and heap_live_mb, which are read before it.
func endToEnd(m *metricSet, rec *recorder) {
	var rates []float64 // a slice without a deployed install is a stall and counts as 0
	for k, ms := range rec.cut(rec.install) {
		rates = append(rates, float64(len(ms))/(rec.edges[k+1].at-rec.edges[k].at))
	}
	m.set("installs_per_s", quantile(rates, 0.5), len(rec.install.ms))
	m.sliced("install_ms_p50", rec, rec.install, 0.50)
	m.sliced("install_ms_p95", rec, rec.install, 0.95)
	m.sliced("remove_ms_p50", rec, rec.remove, 0.50)
	m.sliced("view_ms_p50", rec, rec.view, 0.50)
	m.sliced("view_ms_p90", rec, rec.view, 0.90)
	m.set("slo_share", ratio(float64(rec.withinSLO), float64(rec.scheduled)), rec.scheduled)
	m.set("fail_share", ratio(float64(rec.failed), float64(rec.attempted)), rec.attempted)
	m.set("cpu_ms_per_install", rec.perInstall(func(e edge) float64 { return float64(e.cpu) * msPerNS }))
	m.set("alloc_kb_per_install", rec.perInstall(func(e edge) float64 { return float64(e.alloc) / 1024 }))
}

// --- per layer -----------------------------------------------------------------------

// perLayer fills everything but the kernel timings from the traced window:
// its recorder, its counters and its spans.
func perLayer(m *metricSet, rec *recorder, a, b counters, st spanStats) {
	installs := float64(len(rec.install.ms))

	m.timing("loadgen.sched_late_ms_p99", rec.schedLate.ms, 0.99)
	m.timing("loadgen.reaper_lag_ms_p99", rec.reaperLag.ms, 0.99)
	m.set("loadgen.busy_retries", float64(rec.busyRetry))
	m.timing("loadgen.install_ms_p99", rec.install.ms, 0.99)

	m.set("admission.wait_ms_mean", histMeanMS(a.wait, b.wait), int(b.wait.Count-a.wait.Count))
	m.set("admission.leaf_wait_ms_mean", histMeanMS(a.leaf, b.leaf), int(b.leaf.Count-a.leaf.Count))
	m.set("admission.batch_mean", ratio(float64(b.adm.Coalesced-a.adm.Coalesced), float64(b.adm.Batches-a.adm.Batches)))
	// High-water marks since the queue was built; set-up drives it with no
	// more clients than the workload, so they are the workload's.
	m.set("admission.batch_max", float64(b.adm.MaxBatch))
	m.set("admission.depth_max", float64(b.adm.MaxDepth))
	m.set("admission.dropped", float64(dropped(b.adm)-dropped(a.adm)))

	pa, pb := a.pipe, b.pipe
	roInstalls := float64(pb.Installs - pa.Installs)
	m.set("core.ro.map_ms_mean", histMeanMS(a.roMap, b.roMap), int(b.roMap.Count-a.roMap.Count))
	m.set("core.ro.commit_ms_mean", histMeanMS(a.roCmt, b.roCmt), int(b.roCmt.Count-a.roCmt.Count))
	m.set("core.ro.map_passes_per_install", ratio(float64(pb.MapAttempts-pa.MapAttempts), roInstalls))
	m.set("core.ro.conflicts_per_install", ratio(float64(pb.GenConflicts-pa.GenConflicts), roInstalls))
	m.set("core.ro.escalations_per_install", ratio(float64(pb.Escalations-pa.Escalations), roInstalls))
	m.set("core.ro.multishard_share", ratio(float64(pb.MultiShardCommits-pa.MultiShardCommits), float64(pb.Batches-pa.Batches)))
	m.set("core.ro.busy", float64(pb.Busy-pa.Busy))
	hitShare := func(a, b core.CacheStats) float64 {
		hits, misses := float64(b.Hits-a.Hits), float64(b.Misses-a.Misses)
		return ratio(hits, hits+misses)
	}
	m.set("core.ro.cut_hit_share", hitShare(pa.CutCache, pb.CutCache))
	m.set("core.ro.view_hit_share", hitShare(pa.ViewCache, pb.ViewCache))

	sa, sb := a.south, b.south
	deltas := float64(sb.Deltas - sa.Deltas)
	m.set("southbound.deltas_per_install", ratio(deltas, installs))
	m.set("southbound.flowmods_per_barrier", ratio(float64(sb.FlowMods-sa.FlowMods), float64(sb.Barriers-sa.Barriers)))
	m.set("southbound.netconf_rpcs_per_delta", ratio(float64(sb.NetconfRPCs-sa.NetconfRPCs), deltas))
	m.set("southbound.delta_ms_mean", ratio(float64(sb.LatencyTotalNS-sa.LatencyTotalNS)*msPerNS, deltas))

	m.set("journal.appends_per_install", ratio(float64(b.jrnl.Appends-a.jrnl.Appends), installs))
	m.set("journal.bytes_per_install", ratio(float64(b.jrnl.BytesWritten-a.jrnl.BytesWritten), installs))
	m.set("journal.fsync_ms_mean", histMeanMS(a.fsync, b.fsync), int(b.fsync.Count-a.fsync.Count))
	m.set("journal.checkpoints", float64(b.jrnl.Checkpoints-a.jrnl.Checkpoints))
	// The histogram has power-of-two buckets: this is the upper edge of the
	// slowest checkpoint's bucket.
	m.set("journal.checkpoint_ms_max", float64(histDelta(a.ckpt, b.ckpt).Quantile(1))*msPerNS)

	m.set("runtime.mallocs_per_install", ratio(float64(b.mem.Mallocs-a.mem.Mallocs), installs))
	m.set("runtime.gc_cycles", float64(b.mem.NumGC-a.mem.NumGC))
	m.set("runtime.gc_pause_ms_total", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)*msPerNS)

	m.timing("core.ro.batch_ms_p50", st.dur[spanROInstall], 0.50)
	m.timing("core.ro.self_ms_p50", st.self[spanROInstall], 0.50)
	m.timing("core.ro.remove_ms_p50", st.dur[spanRORemove], 0.50)
	m.timing("core.ro.view_ms_p50", st.dur[spanROView], 0.50)
	m.timing("core.fanout.child_install_ms_p50", st.dur[spanChildInstall], 0.50)
	m.timing("core.fanout.child_remove_ms_p50", st.dur[spanChildRemove], 0.50)
	m.set("core.fanout.children_per_install", ratio(float64(st.children), float64(len(st.dur[spanROInstall]))))
	m.timing("core.lo.install_ms_p50", st.dur[spanLOInstall], 0.50)
	m.timing("core.lo.self_ms_p50", st.self[spanLOInstall], 0.50)
	m.timing("core.lo.remove_ms_p50", st.dur[spanLORemove], 0.50)
	if sbSpans := st.dur[spanSouthbound]; len(sbSpans) > 0 {
		m.timing("southbound.commit_ms_p50", sbSpans, 0.50)
	} else {
		// The Figure-1 domains build their programmers themselves, so there is
		// no boundary to interpose on: take their own recorders' histogram (the
		// upper edge of a power-of-two bucket).
		h := histDelta(sa.DeltaLatency, sb.DeltaLatency)
		m.set("southbound.commit_ms_p50", float64(h.Quantile(0.5))*msPerNS, int(h.Count))
	}
	journalUS := st.dur[spanJournal]
	for i := range journalUS {
		journalUS[i] *= 1000
	}
	m.timing("journal.append_us_p50", journalUS, 0.50)

	// The api layer has no boundary of its own to record at: the HTTP hops
	// are what is left of the client's span, and of the fan-out's span per
	// child, once everything recorded inside them is taken out.
	if len(st.north) > 0 {
		m.set("api.north_ms_mean", mean(st.north), len(st.north))
		m.timing("api.south_hop_ms_p50", st.hop, 0.50)
	} else { // in-process: the client's span is the service layer's
		m.timing("service.submit_ms_p50", st.dur[spanClientInstall], 0.50)
		m.timing("service.self_ms_p50", st.self[spanClientInstall], 0.50)
	}
	m.set("trace.coverage_share", ratio(mean(st.measured), mean(st.total)), len(st.measured))
}
