// Package un implements the paper's Universal Node: a COTS packet-processor
// node combining (i) high-performance forwarding — logical switch instances
// (LSIs) with a DPDK-style batched fast path — and (ii) a container runtime
// executing high-complexity NFs. The UN local orchestrator is UNIFY-native:
// it manages LSIs and containers directly, with no protocol translation in
// between.
package un

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/dataplane"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/domain/emunet"
	"github.com/unify-repro/escape/internal/domain/nfcat"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/obs"
)

// ContainerState is the Docker-style lifecycle.
type ContainerState string

// Container states.
const (
	StateCreated ContainerState = "created"
	StateRunning ContainerState = "running"
	StateStopped ContainerState = "stopped"
)

// Errors of the runtime.
var (
	ErrNoImage     = errors.New("un: image not found")
	ErrNoContainer = errors.New("un: container not found")
	ErrBadState    = errors.New("un: invalid container state transition")
)

// Image is a container image binding a name to an NF functional type.
type Image struct {
	Name   string
	NFType string
}

// Container is one NF instance under the runtime.
type Container struct {
	ID    string
	Image string
	State ContainerState
	Host  nffg.ID        // the LSI the container is attached to
	Ports map[string]int // NF port -> LSI port
}

// Runtime is the Docker-like container manager of the UN.
type Runtime struct {
	net *emunet.Net
	cat *nfcat.Catalogue

	mu         sync.Mutex
	images     map[string]Image
	containers map[string]*Container
}

// NewRuntime creates a runtime over the UN's internal network, preloading
// one image per catalogue type (named "nf/<type>:latest").
func NewRuntime(net *emunet.Net) *Runtime {
	rt := &Runtime{net: net, cat: nfcat.New(), images: map[string]Image{}, containers: map[string]*Container{}}
	for _, typ := range rt.cat.Types() {
		rt.images["nf/"+typ+":latest"] = Image{Name: "nf/" + typ + ":latest", NFType: typ}
	}
	return rt
}

// Create registers a container in "created" state.
func (rt *Runtime) Create(id, image string, host nffg.ID) (*Container, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.images[image]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoImage, image)
	}
	if _, dup := rt.containers[id]; dup {
		return nil, fmt.Errorf("un: container %s exists", id)
	}
	c := &Container{ID: id, Image: image, State: StateCreated, Host: host}
	rt.containers[id] = c
	return c, nil
}

// Start attaches the container's NF to its LSI and runs it.
func (rt *Runtime) Start(id string, ports []string) (*Container, error) {
	rt.mu.Lock()
	c, ok := rt.containers[id]
	if !ok {
		rt.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoContainer, id)
	}
	if c.State != StateCreated && c.State != StateStopped {
		rt.mu.Unlock()
		return nil, fmt.Errorf("%w: start from %s", ErrBadState, c.State)
	}
	img := rt.images[c.Image]
	rt.mu.Unlock()

	proc, _, err := rt.cat.Instantiate(img.NFType, "docker", id)
	if err != nil {
		return nil, err
	}
	alloc, err := rt.net.StartNF(nffg.ID(id), c.Host, ports, proc)
	if err != nil {
		return nil, err
	}
	rt.mu.Lock()
	c.State = StateRunning
	c.Ports = alloc
	rt.mu.Unlock()
	return c, nil
}

// Stop detaches the container's NF.
func (rt *Runtime) Stop(id string) error {
	rt.mu.Lock()
	c, ok := rt.containers[id]
	if !ok {
		rt.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoContainer, id)
	}
	if c.State != StateRunning {
		rt.mu.Unlock()
		return fmt.Errorf("%w: stop from %s", ErrBadState, c.State)
	}
	rt.mu.Unlock()
	if err := rt.net.StopNF(nffg.ID(id)); err != nil {
		return err
	}
	rt.mu.Lock()
	c.State = StateStopped
	c.Ports = nil
	rt.mu.Unlock()
	return nil
}

// Remove forgets a non-running container.
func (rt *Runtime) Remove(id string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c, ok := rt.containers[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoContainer, id)
	}
	if c.State == StateRunning {
		return fmt.Errorf("%w: remove running container", ErrBadState)
	}
	delete(rt.containers, id)
	return nil
}

// Get returns a container snapshot.
func (rt *Runtime) Get(id string) (*Container, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c, ok := rt.containers[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoContainer, id)
	}
	cp := *c
	return &cp, nil
}

// List returns all containers sorted by ID.
func (rt *Runtime) List() []*Container {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*Container, 0, len(rt.containers))
	for _, c := range rt.containers {
		cp := *c
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Domain is the Universal Node with its local orchestrator.
type Domain struct {
	*core.LocalOrchestrator
	net *emunet.Net
	rt  *Runtime
}

// Config assembles a UN.
type Config struct {
	// ID names the node (default "un").
	ID string
	// Substrate describes the UN's LSIs and SAPs (often one BiS-BiS).
	Substrate *nffg.NFFG
	// Engine is the shared dataplane engine.
	Engine *dataplane.Engine
	// Borders lists inter-domain SAPs.
	Borders map[nffg.ID]bool
	// Virtualizer selects the exported view (default SingleBiSBiS).
	Virtualizer core.Virtualizer
	// Accelerated enables the DPDK-style fast path on the LSIs (lower
	// per-packet forwarding latency).
	Accelerated bool
}

// New builds the UN: LSIs from the substrate, a container runtime, and the
// native local orchestrator.
func New(cfg Config) (*Domain, error) {
	if cfg.ID == "" {
		cfg.ID = "un"
	}
	if cfg.Engine == nil {
		cfg.Engine = dataplane.NewEngine()
	}
	net, err := emunet.Build(cfg.Engine, cfg.Substrate, cfg.Borders)
	if err != nil {
		return nil, fmt.Errorf("un: build LSIs: %w", err)
	}
	// LSI pipeline latency: DPDK acceleration buys an order of magnitude.
	fwdDelay := 0.05
	if cfg.Accelerated {
		fwdDelay = 0.005
	}
	for _, id := range net.SwitchIDs() {
		sw, _ := net.Switch(id)
		sw.FwdDelayMs = fwdDelay
	}
	d := &Domain{net: net, rt: NewRuntime(net)}
	lo, err := core.NewLocalOrchestrator(core.LocalConfig{
		ID:           cfg.ID,
		Substrate:    cfg.Substrate,
		Virtualizer:  cfg.Virtualizer,
		Programmer:   core.ProgrammerFunc(d.commit),
		Capabilities: []domain.Capability{domain.CapCompute, domain.CapForwarding, domain.CapNative},
	})
	if err != nil {
		return nil, err
	}
	d.LocalOrchestrator = lo
	return d, nil
}

// Net exposes the UN's internal network.
func (d *Domain) Net() *emunet.Net { return d.net }

// Runtime exposes the container runtime (inspection, tests).
func (d *Domain) Runtime() *Runtime { return d.rt }

// containerConcurrency bounds parallel container lifecycle operations per
// delta (a Docker daemon serializes around a small worker pool; unbounded
// fan-out is not how real runtimes behave).
const containerConcurrency = 8

// commit realizes deltas natively: container lifecycle + direct LSI table
// programming. Lifecycle operations of one delta run concurrently under a
// bounded worker pool — containers are independent of each other; only the
// phase boundaries (teardowns before starts before rules) are ordered. A
// teardown skips what is already gone: an undo tears down containers a
// failed delta may never have created or started.
func (d *Domain) commit(ctx context.Context, delta *nffg.Delta, _ *nffg.NFFG) error {
	sb := d.Southbound()

	for infra, rules := range delta.DelRules {
		sw, err := d.net.Switch(infra)
		if err != nil {
			return err
		}
		for _, f := range rules {
			sw.Table.Remove(f.ID)
		}
	}
	// Container lifecycle phases (teardowns, then starts) under one span:
	// the UN programs containers natively, so this is its southbound work.
	cSpan, cctx := obs.StartSpan(ctx, "un.containers",
		"stops", strconv.Itoa(len(delta.DelNFs)), "starts", strconv.Itoa(len(delta.AddNFs)))
	// Teardown phase: stop+remove each deleted NF, bounded-parallel.
	err := forEachBounded(cctx, len(delta.DelNFs), func(i int) error {
		id := delta.DelNFs[i]
		sb.AddContainerOps(2) // stop + remove
		err := d.rt.Stop(string(id))
		if errors.Is(err, ErrNoContainer) {
			return nil
		}
		if err != nil && !errors.Is(err, ErrBadState) {
			return fmt.Errorf("un: stop %s: %w", id, err)
		}
		if err := d.rt.Remove(string(id)); err != nil && !errors.Is(err, ErrNoContainer) {
			return fmt.Errorf("un: remove %s: %w", id, err)
		}
		return nil
	})
	if err != nil {
		cSpan.EndWith(err)
		return err
	}
	// Start phase: create+start each added NF, bounded-parallel.
	err = forEachBounded(cctx, len(delta.AddNFs), func(i int) error {
		nf := delta.AddNFs[i]
		image := "nf/" + nf.FunctionalType + ":latest"
		sb.AddContainerOps(2) // create + start
		if _, err := d.rt.Create(string(nf.ID), image, nf.Host); err != nil {
			return fmt.Errorf("un: create %s: %w", nf.ID, err)
		}
		var ports []string
		for _, p := range nf.Ports {
			ports = append(ports, p.ID)
		}
		if _, err := d.rt.Start(string(nf.ID), ports); err != nil {
			return fmt.Errorf("un: start %s: %w", nf.ID, err)
		}
		return nil
	})
	cSpan.EndWith(err)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return err
	}
	return d.installRules(delta)
}

// installRules translates the delta's added flowrules onto the LSIs.
func (d *Domain) installRules(delta *nffg.Delta) error {
	for infra, rules := range delta.AddRules {
		sw, err := d.net.Switch(infra)
		if err != nil {
			return err
		}
		for _, f := range rules {
			r, err := emunet.TranslateRule(f, func(nf nffg.ID) (map[string]int, error) {
				c, err := d.rt.Get(string(nf))
				if err != nil {
					return nil, err
				}
				return c.Ports, nil
			})
			if err != nil {
				return fmt.Errorf("un: translate %s: %w", f.ID, err)
			}
			sw.Table.Install(r)
		}
	}
	return nil
}

// forEachBounded runs fn(0..n-1) across at most containerConcurrency workers,
// stops handing out work after the first error or cancellation, and returns
// the first error by index (deterministic despite scheduling).
func forEachBounded(ctx context.Context, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	workers := containerConcurrency
	if n < workers {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
