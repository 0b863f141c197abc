// Package fleet is the elastic domain membership controller: a per-domain
// state machine (ATTACHING → ACTIVE → DEGRADED → EVICTING → DETACHED) driven
// by periodic health probes over the existing domain interfaces, runtime
// attach/detach on the live orchestrator, and automatic failover — when a
// domain is evicted (probe failures past the threshold, or an operator
// drain), the controller detaches it and re-embeds the displaced services
// onto the surviving domains through the ordinary snapshot→map→commit
// pipeline, with bounded migration concurrency and admission pause/resume
// around the window so queued requests never race the shrinking fleet.
package fleet

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// State is a fleet member's lifecycle position.
type State string

const (
	// StateAttaching: Add is merging the domain's view; no installs yet.
	StateAttaching State = "attaching"
	// StateActive: healthy, serving installs.
	StateActive State = "active"
	// StateDegraded: failing probes but below the eviction threshold. Still
	// serving — existing services keep running and a recovered probe returns
	// the member to ACTIVE without churn.
	StateDegraded State = "degraded"
	// StateEvicting: past the threshold (or drained); the failover sequence
	// is running and new installs targeting the domain fail typed.
	StateEvicting State = "evicting"
	// StateDetached: gone from the orchestrator; kept for status history and
	// so the gate keeps answering for the name until a re-attach.
	StateDetached State = "detached"
)

// Orchestrator is the slice of core.ResourceOrchestrator the controller
// drives (an interface so tests can fake the expensive parts).
type Orchestrator interface {
	Attach(ctx context.Context, d domain.Domain) error
	Detach(ctx context.Context, child string) (*core.DetachReport, error)
	SetDomainGate(core.DomainGate)
	ShardOf(child string) (string, bool)
	Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error)
}

// Pauser pauses/resumes admission dispatch for shard lanes during a failover
// window (implemented by admission.Queue). Optional.
type Pauser interface {
	PauseShards(keys []string)
	ResumeShards(keys []string)
}

// Pinger is the optional lightweight liveness probe a domain adapter may
// implement; members without it are probed via View (heavier but universal).
type Pinger interface {
	Ping(ctx context.Context) error
}

// Config configures a Controller.
type Config struct {
	Orchestrator Orchestrator
	Admission    Pauser // may be nil
	// ProbeInterval is the health-probe period (default 2s). ProbeTimeout
	// bounds one probe attempt (default 1s); ProbeRetries is the number of
	// extra attempts within one round after a failure (default 1), spaced by
	// retryBackoff.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	ProbeRetries  int
	// DegradeAfter consecutive failed probe rounds mark a member DEGRADED
	// (default 1); EvictAfter rounds trigger eviction + failover (default 3).
	DegradeAfter int
	EvictAfter   int
	// MaxMigrations bounds concurrent re-embeddings during one eviction
	// (default 2): failover must not starve foreground admission.
	MaxMigrations int
	// OnTransition, when set, observes every state change (called without
	// controller locks held).
	OnTransition func(name string, from, to State)
}

// retryBackoff spaces the probe attempts within one round.
const retryBackoff = 100 * time.Millisecond

func (c *Config) defaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.ProbeRetries < 0 {
		c.ProbeRetries = 0
	} else if c.ProbeRetries == 0 {
		c.ProbeRetries = 1
	}
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = 1
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = 3
	}
	if c.MaxMigrations <= 0 {
		c.MaxMigrations = 2
	}
}

// member is one domain's fleet record. Guarded by Controller.mu except where
// noted; the probe loop copies what it needs and never holds mu across I/O.
type member struct {
	name      string
	shard     string
	d         domain.Domain
	state     State
	fails     int
	lastErr   string
	lastProbe time.Time
	since     time.Time
	probes    uint64
	rehomed   int
	evicting  bool // eviction sequence owned by some goroutine
}

// DomainStatus is one member's externally visible state (fleet API + CLI).
type DomainStatus struct {
	Domain              string    `json:"domain"`
	Shard               string    `json:"shard"`
	State               State     `json:"state"`
	ConsecutiveFailures int       `json:"consecutive_failures"`
	LastError           string    `json:"last_error,omitempty"`
	LastProbe           time.Time `json:"last_probe,omitzero"`
	Since               time.Time `json:"since"`
	Probes              uint64    `json:"probes"`
	ServicesRehomed     int       `json:"services_rehomed,omitempty"`
}

// Stats are the controller's cumulative counters and state gauges (every
// field numeric, so the reflection-driven /metrics exporter picks them all
// up under unify_fleet_*).
type Stats struct {
	Domains         int    `json:"domains"`
	Attaching       int    `json:"attaching"`
	Active          int    `json:"active"`
	Degraded        int    `json:"degraded"`
	Evicting        int    `json:"evicting"`
	Detached        int    `json:"detached"`
	Probes          uint64 `json:"probes"`
	ProbeFailures   uint64 `json:"probe_failures"`
	Evictions       uint64 `json:"evictions"`
	Drains          uint64 `json:"drains"`
	ServicesRehomed uint64 `json:"services_rehomed"`
	RehomeFailures  uint64 `json:"rehome_failures"`
}

// Controller runs the fleet state machine. Create with New, start probing
// with Run, stop with Stop.
type Controller struct {
	cfg Config

	mu      sync.Mutex
	members map[string]*member

	probes     atomic.Uint64
	probeFails atomic.Uint64
	evictions  atomic.Uint64
	drains     atomic.Uint64
	rehomed    atomic.Uint64
	rehomeErrs atomic.Uint64

	runOnce  sync.Once
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds a controller and installs its availability gate on the
// orchestrator: installs targeting a member that is not ACTIVE or DEGRADED
// fail with unify.ErrDomainUnavailable. Domains the controller does not
// manage pass the gate untouched.
func New(cfg Config) *Controller {
	cfg.defaults()
	c := &Controller{
		cfg:     cfg,
		members: map[string]*member{},
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	cfg.Orchestrator.SetDomainGate(c.gate)
	return c
}

func (c *Controller) gate(child string) error {
	c.mu.Lock()
	m, ok := c.members[child]
	var st State
	if ok {
		st = m.state
	}
	c.mu.Unlock()
	if !ok {
		return nil
	}
	switch st {
	case StateActive, StateDegraded:
		return nil
	}
	return fmt.Errorf("fleet: domain %s is %s", child, st)
}

// setState transitions a member (caller holds c.mu) and fires the hook after
// the lock drops via the returned func.
func (c *Controller) setStateLocked(m *member, to State) func() {
	from := m.state
	if from == to {
		return func() {}
	}
	m.state = to
	m.since = time.Now()
	hook := c.cfg.OnTransition
	name := m.name
	return func() {
		if hook != nil {
			hook(name, from, to)
		}
	}
}

// Adopt registers an already-attached domain (escaped attaches its children
// during boot/recovery before the controller exists) as an ACTIVE member.
func (c *Controller) Adopt(d domain.Domain) {
	shard, _ := c.cfg.Orchestrator.ShardOf(d.ID())
	c.mu.Lock()
	c.members[d.ID()] = &member{
		name: d.ID(), shard: shard, d: d,
		state: StateActive, since: time.Now(),
	}
	c.mu.Unlock()
}

// Add attaches a new domain at runtime and, on success, starts probing it.
// The member is visible as ATTACHING for the duration of the view merge; a
// failed attach leaves no member behind.
func (c *Controller) Add(ctx context.Context, d domain.Domain) error {
	name := d.ID()
	c.mu.Lock()
	if m, ok := c.members[name]; ok && m.state != StateDetached {
		c.mu.Unlock()
		return fmt.Errorf("fleet: domain %s already a member (%s)", name, m.state)
	}
	m := &member{name: name, d: d, state: StateAttaching, since: time.Now()}
	c.members[name] = m
	c.mu.Unlock()

	if err := c.cfg.Orchestrator.Attach(ctx, d); err != nil {
		c.mu.Lock()
		delete(c.members, name)
		c.mu.Unlock()
		return err
	}
	shard, _ := c.cfg.Orchestrator.ShardOf(name)
	c.mu.Lock()
	m.shard = shard
	m.fails = 0
	fire := c.setStateLocked(m, StateActive)
	c.mu.Unlock()
	fire()
	return nil
}

// Drain evicts a domain on operator request: same failover sequence as a
// probe-driven eviction, without waiting for the health threshold.
func (c *Controller) Drain(ctx context.Context, name string) (*core.DetachReport, error) {
	c.mu.Lock()
	m, ok := c.members[name]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("fleet: drain %s: %w", name, domain.ErrUnknown)
	}
	if m.state == StateDetached || m.evicting {
		st := m.state
		c.mu.Unlock()
		return nil, fmt.Errorf("fleet: drain %s: domain is %s", name, st)
	}
	m.evicting = true
	m.lastErr = "drained by operator"
	fire := c.setStateLocked(m, StateEvicting)
	c.mu.Unlock()
	fire()
	c.drains.Add(1)
	return c.evict(ctx, m)
}

// Run starts the probe loop (idempotent). It returns immediately; Stop ends
// the loop.
func (c *Controller) Run() {
	c.runOnce.Do(func() {
		go func() {
			defer close(c.done)
			t := time.NewTicker(c.cfg.ProbeInterval)
			defer t.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-t.C:
					c.probeAll()
				}
			}
		}()
	})
}

// Stop ends the probe loop and waits for in-flight probe rounds to finish.
// Evictions already underway run to completion.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.runOnce.Do(func() { close(c.done) }) // Run never called: nothing to wait for
	<-c.done
}

// probeAll probes every probe-worthy member concurrently and applies the
// state transitions; eviction sequences run inside the per-member goroutine.
func (c *Controller) probeAll() {
	c.mu.Lock()
	targets := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		if m.state == StateDetached || m.state == StateAttaching || m.evicting {
			continue
		}
		targets = append(targets, m)
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, m := range targets {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			c.probeOne(m)
		}(m)
	}
	wg.Wait()
}

// probeOne runs one probe round against a member: up to 1+ProbeRetries
// attempts, each under ProbeTimeout, spaced by retryBackoff. Transitions per
// the consecutive-failure thresholds; a success heals DEGRADED back to
// ACTIVE.
func (c *Controller) probeOne(m *member) {
	err := c.probe(m.d)
	c.probes.Add(1)

	c.mu.Lock()
	m.probes++
	m.lastProbe = time.Now()
	if err == nil {
		m.fails = 0
		m.lastErr = ""
		var fire func()
		if m.state == StateDegraded {
			fire = c.setStateLocked(m, StateActive)
		}
		c.mu.Unlock()
		if fire != nil {
			fire()
		}
		return
	}
	c.probeFails.Add(1)
	m.fails++
	m.lastErr = err.Error()
	evict := m.fails >= c.cfg.EvictAfter && !m.evicting
	var fire func()
	switch {
	case evict:
		m.evicting = true
		fire = c.setStateLocked(m, StateEvicting)
	case m.fails >= c.cfg.DegradeAfter && m.state == StateActive:
		fire = c.setStateLocked(m, StateDegraded)
	}
	c.mu.Unlock()
	if fire != nil {
		fire()
	}
	if evict {
		c.evictions.Add(1)
		if _, eerr := c.evict(context.Background(), m); eerr != nil {
			log.Printf("fleet: evict %s: %v", m.name, eerr)
		}
	}
}

func (c *Controller) probe(d domain.Domain) error {
	attempts := c.cfg.ProbeRetries + 1
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			time.Sleep(retryBackoff)
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
		if p, ok := d.(Pinger); ok {
			lastErr = p.Ping(ctx)
		} else {
			_, lastErr = d.View(ctx)
		}
		cancel()
		if lastErr == nil {
			return nil
		}
	}
	return lastErr
}

// evict runs the failover sequence for a member already marked EVICTING (the
// caller owns m.evicting): pause the member's admission lane, detach it from
// the orchestrator, re-embed every displaced service onto the survivors with
// bounded concurrency, resume the lane, and mark the member DETACHED. A
// failed re-embed rolls itself back inside the install pipeline and is
// counted; the service is gone (its resources were released with the dead
// domain) — exactly the contract a lost domain implies.
func (c *Controller) evict(ctx context.Context, m *member) (*core.DetachReport, error) {
	if c.cfg.Admission != nil && m.shard != "" {
		c.cfg.Admission.PauseShards([]string{m.shard})
		defer c.cfg.Admission.ResumeShards([]string{m.shard})
	}
	report, err := c.cfg.Orchestrator.Detach(ctx, m.name)
	if err != nil {
		c.mu.Lock()
		m.evicting = false
		// Leave the state machine where it was headed: the next probe round
		// (or drain retry) re-attempts the eviction.
		c.mu.Unlock()
		return nil, err
	}

	// Re-embed the displaced services on the survivors. The gate already
	// answers "unavailable" for this member, so the installs can only land
	// elsewhere. Bounded workers: failover must not monopolize the mapper.
	sem := make(chan struct{}, c.cfg.MaxMigrations)
	var wg sync.WaitGroup
	var rehomedHere atomic.Uint64
	for _, ds := range report.Displaced {
		if ds.Request == nil {
			c.rehomeErrs.Add(1)
			log.Printf("fleet: rehome %s: no request graph recorded", ds.ServiceID)
			continue
		}
		wg.Add(1)
		go func(ds core.DisplacedService) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if _, ierr := c.cfg.Orchestrator.Install(ctx, ds.Request); ierr != nil {
				c.rehomeErrs.Add(1)
				log.Printf("fleet: rehome %s after evicting %s: %v", ds.ServiceID, m.name, ierr)
				return
			}
			c.rehomed.Add(1)
			rehomedHere.Add(1)
		}(ds)
	}
	wg.Wait()

	c.mu.Lock()
	m.evicting = false
	m.rehomed += int(rehomedHere.Load())
	fire := c.setStateLocked(m, StateDetached)
	c.mu.Unlock()
	fire()
	return report, nil
}

// Status lists every member's state, sorted by domain name.
func (c *Controller) Status() []DomainStatus {
	c.mu.Lock()
	out := make([]DomainStatus, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, DomainStatus{
			Domain:              m.name,
			Shard:               m.shard,
			State:               m.state,
			ConsecutiveFailures: m.fails,
			LastError:           m.lastErr,
			LastProbe:           m.lastProbe,
			Since:               m.since,
			Probes:              m.probes,
			ServicesRehomed:     m.rehomed,
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// Stats snapshots the controller's gauges and counters.
func (c *Controller) Stats() Stats {
	st := Stats{
		Probes:          c.probes.Load(),
		ProbeFailures:   c.probeFails.Load(),
		Evictions:       c.evictions.Load(),
		Drains:          c.drains.Load(),
		ServicesRehomed: c.rehomed.Load(),
		RehomeFailures:  c.rehomeErrs.Load(),
	}
	c.mu.Lock()
	st.Domains = len(c.members)
	for _, m := range c.members {
		switch m.state {
		case StateAttaching:
			st.Attaching++
		case StateActive:
			st.Active++
		case StateDegraded:
			st.Degraded++
		case StateEvicting:
			st.Evicting++
		case StateDetached:
			st.Detached++
		}
	}
	c.mu.Unlock()
	return st
}
