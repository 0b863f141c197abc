// Package domain defines the southbound contract of the orchestration
// hierarchy: an infrastructure domain is a unify.Layer (it exports a
// virtualization view and accepts service requests) plus capability
// advertisement. Every technology adapter — Mininet+Click, OpenStack+ODL,
// POX-controlled OpenFlow, Universal Node — implements Domain through its
// local orchestrator; the resource orchestrator above is indifferent to what
// is behind the interface, which is the paper's point.
package domain

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/unify-repro/escape/internal/unify"
)

// Capability flags advertise what a domain can execute.
type Capability string

// Capabilities.
const (
	// CapCompute marks domains that can instantiate NFs.
	CapCompute Capability = "compute"
	// CapForwarding marks domains that can program flowrules.
	CapForwarding Capability = "forwarding"
	// CapNative marks UNIFY-native domains (another orchestration layer
	// speaking the Unify interface, rather than a translation adapter).
	CapNative Capability = "unify-native"
)

// Domain is one infrastructure domain behind an orchestrator.
type Domain interface {
	unify.Layer
	// Capabilities advertises the domain's abilities.
	Capabilities() []Capability
}

// Observer receives domain lifecycle notifications.
type Observer interface {
	DomainUp(name string)
	DomainDown(name string)
}

// Errors of the registry.
var (
	ErrDuplicate = errors.New("domain: already registered")
	ErrUnknown   = errors.New("domain: unknown domain")
)

// Registry tracks the domains attached to an orchestrator.
type Registry struct {
	mu        sync.RWMutex
	domains   map[string]Domain
	observers []Observer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{domains: map[string]Domain{}}
}

// Register attaches a domain.
func (r *Registry) Register(d Domain) error {
	r.mu.Lock()
	if _, ok := r.domains[d.ID()]; ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDuplicate, d.ID())
	}
	r.domains[d.ID()] = d
	obs := append([]Observer(nil), r.observers...)
	r.mu.Unlock()
	for _, o := range obs {
		o.DomainUp(d.ID())
	}
	return nil
}

// Deregister detaches a domain.
func (r *Registry) Deregister(name string) error {
	r.mu.Lock()
	if _, ok := r.domains[name]; !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	delete(r.domains, name)
	obs := append([]Observer(nil), r.observers...)
	r.mu.Unlock()
	for _, o := range obs {
		o.DomainDown(name)
	}
	return nil
}

// Observe subscribes to lifecycle events.
func (r *Registry) Observe(o Observer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observers = append(r.observers, o)
}

// Get returns a domain by name.
func (r *Registry) Get(name string) (Domain, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.domains[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	return d, nil
}

// Names lists registered domains, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.domains))
	for n := range r.domains {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns the domains in name order.
func (r *Registry) All() []Domain {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.domains))
	for n := range r.domains {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Domain, 0, len(names))
	for _, n := range names {
		out = append(out, r.domains[n])
	}
	return out
}
