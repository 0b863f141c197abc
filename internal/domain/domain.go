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

// Errors of domain membership: an orchestrator refuses to attach a domain it
// already holds, and to act on one it does not.
var (
	ErrDuplicate = errors.New("domain: already registered")
	ErrUnknown   = errors.New("domain: unknown domain")
)
