package bench

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/fleet"
	"github.com/unify-repro/escape/internal/journal"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// Span names, one per layer boundary the benchmark interposes on. A span's
// parent is the open span of the layer above for the same request.
const (
	spanClientInstall = "client.install"
	spanClientRemove  = "client.remove"
	spanClientView    = "client.view"
	spanAdmissionWait = "admission.wait"
	spanROInstall     = "core.ro.install"
	spanRORemove      = "core.ro.remove"
	spanROView        = "core.ro.view"
	spanChildInstall  = "core.fanout.child.install"
	spanChildRemove   = "core.fanout.child.remove"
	spanLOInstall     = "core.lo.install"
	spanLORemove      = "core.lo.remove"
	spanSouthbound    = "southbound.commit"
	spanJournal       = "journal.append"
)

// Span is one timed interval at a layer boundary. Times are nanoseconds since
// the tracer was created.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root, recorded by the load generator
	Req    string `json:"req"`    // shared by every span of one request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	key string // the ID the layer saw: Req, or Req#child below the fan-out
}

type openKey struct{ name, key string }

// Tracer keeps the spans of a traced run in memory. The request ID is the
// correlation key: the layers carry it in the request graph (the MdO derives
// its sub-request IDs as "<service>#<child>"), so spans join across the HTTP
// hops and admission queues that drop the caller's context. While off, Begin
// records nothing and costs one atomic load.
type Tracer struct {
	on   atomic.Bool
	t0   time.Time
	mu   sync.Mutex
	all  []Span
	open map[openKey]int
}

func NewTracer() *Tracer {
	return &Tracer{t0: time.Now(), open: map[openKey]int{}}
}

// Enable switches recording on or off; spans already open still end. Like
// Begin and End it accepts the nil tracer of an undecorated run.
func (t *Tracer) Enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// requestOf strips the "#child" suffix the fan-out adds.
func requestOf(key string) string {
	req, _, _ := strings.Cut(key, "#")
	return req
}

// Begin opens a span for the request the layer knows as key. Its parent is
// the first open span named in parents that belongs to the same request. An
// empty key adopts the request of whichever such parent is open (a layer that
// sees no ID: there is then at most one candidate, the single reader's view).
// It returns 0, which End ignores, when the tracer is nil or off, and when
// parents are named but none is open (work no traced request caused), so
// every recorded span hangs off a root the load generator opened.
func (t *Tracer) Begin(name, key string, parents ...string) int {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	for _, p := range parents {
		if key == "" {
			for k, id := range t.open {
				if k.name == p {
					parent, key = id, k.key
				}
			}
		} else if id, ok := t.open[openKey{p, key}]; ok {
			parent = id
		} else if id, ok := t.open[openKey{p, requestOf(key)}]; ok {
			parent = id
		}
		if parent != 0 {
			break
		}
	}
	if parent == 0 && len(parents) > 0 {
		return 0
	}
	return t.add(Span{Parent: parent, Req: requestOf(key), Name: name, Start: now, key: key})
}

// BeginUnder opens a child of a known span (one carried on a context).
func (t *Tracer) BeginUnder(name string, parent int) int {
	if t == nil || parent == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.all[parent-1]
	return t.add(Span{Parent: parent, Req: p.Req, Name: name, Start: now, key: p.key})
}

func (t *Tracer) add(s Span) int {
	s.ID = len(t.all) + 1
	t.all = append(t.all, s)
	t.open[openKey{s.Name, s.key}] = s.ID
	return s.ID
}

// End closes a span now; a second End of the same span is ignored.
func (t *Tracer) End(id int) { t.EndAt(id, time.Now()) }

// EndAt closes a span at a time observed elsewhere (a job's Finished stamp).
func (t *Tracer) EndAt(id int, at time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.all[id-1]
	if s.End != 0 {
		return
	}
	s.End = at.Sub(t.t0).Nanoseconds()
	if t.open[openKey{s.Name, s.key}] == id {
		delete(t.open, openKey{s.Name, s.key})
	}
}

// SetStart moves a span's start back to when its request was due, so an
// open-loop root covers the wait a late generator imposed.
func (t *Tracer) SetStart(id int, at time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.all[id-1].Start = at.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// AddWaits records, as children of the finished spans named parent, the
// admission waits (submitted to dispatched) a queue's own job records give:
// the queue sits between two boundaries the decorators see, and its jobs
// carry the same service IDs the spans are keyed by.
func (t *Tracer) AddWaits(parent string, jobs []admission.Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byKey := map[string]int{}
	for _, s := range t.all {
		if s.Name == parent && s.End != 0 {
			byKey[s.key] = s.ID
		}
	}
	for _, j := range jobs {
		id, ok := byKey[j.ServiceID]
		if !ok || j.Started.IsZero() {
			continue
		}
		p := t.all[id-1]
		start, end := j.Submitted.Sub(t.t0).Nanoseconds(), j.Started.Sub(t.t0).Nanoseconds()
		if start < p.Start || end > p.End {
			continue // an earlier try's job under a retried ID
		}
		t.all = append(t.all, Span{ID: len(t.all) + 1, Parent: id, Req: p.Req, Name: spanAdmissionWait, Start: start, End: end, key: p.key})
	}
}

// Spans returns the finished spans in creation order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.all))
	for _, s := range t.all {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

type spanKey struct{}

func withSpan(ctx context.Context, id int) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int {
	id, _ := ctx.Value(spanKey{}).(int)
	return id
}

// --- decorators ---------------------------------------------------------------
//
// Each embeds the value it wraps, so every optional interface the layers
// type-assert (BatchInstaller, Sharder, VersionedViewer, the stats providers)
// is promoted unchanged and a decorated stack takes the same code paths as an
// undecorated one.

// tracedRO records the MdO's install, remove and view boundaries: what the
// admission queue and the API server call into.
type tracedRO struct {
	*core.ResourceOrchestrator
	tr *Tracer
}

// InstallBatch opens one span per request of the batch and closes each when
// that request's own outcome is final, not when the batch returns.
func (t tracedRO) InstallBatch(ctx context.Context, reqs []*nffg.NFFG, obs unify.BatchObserver) []unify.BatchOutcome {
	ids := make([]int, len(reqs))
	for i, r := range reqs {
		ids[i] = t.tr.Begin(spanROInstall, r.ID, spanClientInstall)
	}
	done := obs.Done
	obs.Done = func(i int, out unify.BatchOutcome) {
		t.tr.End(ids[i])
		if done != nil {
			done(i, out)
		}
	}
	out := t.ResourceOrchestrator.InstallBatch(ctx, reqs, obs)
	for _, id := range ids {
		t.tr.End(id)
	}
	return out
}

// Install is the orchestrator's own Install, a batch of one, routed through
// the recording InstallBatch above (the promoted method would bypass it).
func (t tracedRO) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	out := t.InstallBatch(ctx, []*nffg.NFFG{req}, unify.BatchObserver{})
	return out[0].Receipt, out[0].Err
}

func (t tracedRO) Remove(ctx context.Context, serviceID string) error {
	defer t.tr.End(t.tr.Begin(spanRORemove, serviceID, spanClientRemove))
	return t.ResourceOrchestrator.Remove(ctx, serviceID)
}

func (t tracedRO) VersionedView(ctx context.Context) (*nffg.NFFG, core.ViewVersion, error) {
	defer t.tr.End(t.tr.Begin(spanROView, "", spanClientView))
	return t.ResourceOrchestrator.VersionedView(ctx)
}

// tracedDomain records what the MdO's fan-out spends in one child: over HTTP
// that is the hop, the leaf's admission wait and the leaf orchestrator; for an
// in-process technology domain it is the local orchestrator itself, and the
// spans are named accordingly.
type tracedDomain struct {
	domain.Domain
	tr              *Tracer
	install, remove string
}

func (d tracedDomain) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	defer d.tr.End(d.tr.Begin(d.install, req.ID, spanROInstall))
	return d.Domain.Install(ctx, req)
}

func (d tracedDomain) Remove(ctx context.Context, serviceID string) error {
	defer d.tr.End(d.tr.Begin(d.remove, serviceID, spanRORemove))
	return d.Domain.Remove(ctx, serviceID)
}

// SouthboundStats implements core.SouthboundStatsProvider.
func (d tracedDomain) SouthboundStats() core.SouthboundStats {
	if p, ok := d.Domain.(core.SouthboundStatsProvider); ok {
		return p.SouthboundStats()
	}
	return core.SouthboundStats{}
}

// Ping implements fleet.Pinger, falling back to the View probe the fleet
// controller itself uses for members without one.
func (d tracedDomain) Ping(ctx context.Context) error {
	if p, ok := d.Domain.(fleet.Pinger); ok {
		return p.Ping(ctx)
	}
	_, err := d.Domain.View(ctx)
	return err
}

// tracedLO records a leaf's local orchestrator below its admission queue and
// hands its span to the programmer through the context the orchestrator
// passes on.
type tracedLO struct {
	*core.LocalOrchestrator
	tr *Tracer
}

func (l tracedLO) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	id := l.tr.Begin(spanLOInstall, req.ID, spanChildInstall)
	defer l.tr.End(id)
	return l.LocalOrchestrator.Install(withSpan(ctx, id), req)
}

func (l tracedLO) Remove(ctx context.Context, serviceID string) error {
	id := l.tr.Begin(spanLORemove, serviceID, spanChildRemove)
	defer l.tr.End(id)
	return l.LocalOrchestrator.Remove(withSpan(ctx, id), serviceID)
}

// tracedProgrammer records device programming under the local orchestrator
// span that caused it.
type tracedProgrammer struct {
	core.Programmer
	tr *Tracer
}

func (p tracedProgrammer) Commit(ctx context.Context, delta *nffg.Delta, cfg *nffg.NFFG) error {
	defer p.tr.End(p.tr.BeginUnder(spanSouthbound, spanFrom(ctx)))
	return p.Programmer.Commit(ctx, delta, cfg)
}

// tracedJournal records the write-ahead appends a request waits for, on the
// orchestrator's commit paths (core.Journal) and at job admission
// (admission.JobJournal). LogJobDone stays untraced: the queue stamps
// Job.Finished, which ends an open-loop request, before it appends that
// record. A commit record that carries several services of one batch is
// attributed to the first.
type tracedJournal struct {
	*journal.Store
	tr *Tracer
}

func (j tracedJournal) LogCommit(shard string, gen, epoch uint64, svcs []journal.ServiceCommit) error {
	key := ""
	if len(svcs) > 0 {
		key = svcs[0].ServiceID
	}
	defer j.tr.End(j.tr.Begin(spanJournal, key, spanROInstall))
	return j.Store.LogCommit(shard, gen, epoch, svcs)
}

func (j tracedJournal) LogRelease(shard string, gen, epoch uint64, serviceIDs []string) error {
	key := ""
	if len(serviceIDs) > 0 {
		key = serviceIDs[0]
	}
	defer j.tr.End(j.tr.Begin(spanJournal, key, spanRORemove))
	return j.Store.LogRelease(shard, gen, epoch, serviceIDs)
}

func (j tracedJournal) LogDeployed(shard string, epoch uint64, rec journal.DeployedRecord) error {
	defer j.tr.End(j.tr.Begin(spanJournal, rec.ServiceID, spanROInstall))
	return j.Store.LogDeployed(shard, epoch, rec)
}

func (j tracedJournal) LogJob(rec journal.JobRecord) error {
	defer j.tr.End(j.tr.Begin(spanJournal, rec.ServiceID, spanClientInstall))
	return j.Store.LogJob(rec)
}
