package domain

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// stubDomain is a minimal Domain for registry tests.
type stubDomain struct {
	id   string
	caps []Capability
}

func (s *stubDomain) ID() string                               { return s.id }
func (s *stubDomain) Capabilities() []Capability               { return s.caps }
func (s *stubDomain) View(context.Context) (*nffg.NFFG, error) { return nffg.New(s.id), nil }
func (s *stubDomain) Install(context.Context, *nffg.NFFG) (*unify.Receipt, error) {
	return &unify.Receipt{}, nil
}
func (s *stubDomain) Remove(context.Context, string) error { return nil }
func (s *stubDomain) Services() []string                   { return nil }

type recorder struct {
	mu   sync.Mutex
	ups  []string
	down []string
}

func (r *recorder) DomainUp(n string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ups = append(r.ups, n)
}
func (r *recorder) DomainDown(n string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.down = append(r.down, n)
}

func TestRegistryLifecycle(t *testing.T) {
	reg := NewRegistry()
	obs := &recorder{}
	reg.Observe(obs)

	a := &stubDomain{id: "a", caps: []Capability{CapForwarding}}
	b := &stubDomain{id: "b", caps: []Capability{CapCompute, CapForwarding}}
	if err := reg.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(b); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(a); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
	if got := reg.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("names: %v", got)
	}
	if got := reg.All(); len(got) != 2 || got[0].ID() != "a" {
		t.Fatalf("all: %v", got)
	}
	d, err := reg.Get("b")
	if err != nil || d.ID() != "b" {
		t.Fatalf("get: %v %v", d, err)
	}
	if _, err := reg.Get("zz"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown get: %v", err)
	}
	if err := reg.Deregister("a"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Deregister("a"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("double deregister: %v", err)
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.ups) != 2 || len(obs.down) != 1 || obs.down[0] != "a" {
		t.Fatalf("observer: ups=%v down=%v", obs.ups, obs.down)
	}
}
