// Package escape is a Go reproduction of the UNIFY multi-domain service
// orchestration architecture (Sonkoly et al., "Multi-Domain Service
// Orchestration Over Networks and Clouds: A Unified Approach", SIGCOMM 2015).
//
// The package is the public facade over the building blocks:
//
//   - nffg: the joint cloud+network data model (BiS-BiS nodes, NFs, SAPs,
//     flowrules) — the Go rendering of the paper's Yang virtualizer;
//   - core: virtualizers (transparent, per-domain, single BiS-BiS) and the
//     recursive resource orchestrator, leaves included (a leaf is one over
//     its domain's substrate that programs devices instead of children);
//   - embed: the constraint-aware mapping algorithms with NF decomposition;
//   - service: the user-facing service layer;
//   - four infrastructure domains (Mininet+Click, OpenStack+ODL, POX-style
//     legacy SDN, Universal Node) over a shared deterministic dataplane.
//
// Most users start with NewFig1System (the paper's demo setup) or assemble
// their own stack from the re-exported constructors.
package escape

import (
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/dataplane"
	"github.com/unify-repro/escape/internal/decomp"
	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/service"
	"github.com/unify-repro/escape/internal/unify"
)

// Re-exported model types: the joint virtualization data model.
type (
	// NFFG is the network function forwarding graph (views, requests,
	// configurations — the single structure of the Unify interface).
	NFFG = nffg.NFFG
	// Resources is compute/storage capacity or demand.
	Resources = nffg.Resources
	// ID identifies nodes in an NFFG.
	ID = nffg.ID
	// Builder assembles NFFGs declaratively.
	Builder = nffg.Builder
	// Receipt reports how a request was realized, recursively per layer;
	// the service layer's Submit and Migrate return it.
	Receipt = unify.Receipt
	// Layer is the recursive Unify interface.
	Layer = unify.Layer
	// Mapping is an embedding result.
	Mapping = embed.Mapping
	// Virtualizer computes client views from resource views.
	Virtualizer = core.Virtualizer
	// LocalConfig assembles a leaf-domain local orchestrator.
	LocalConfig = core.LocalConfig
	// OrchestratorConfig assembles a multi-domain resource orchestrator.
	OrchestratorConfig = core.Config
	// MapperOptions tunes the embedding algorithm.
	MapperOptions = embed.Options
)

// NewConfiguredMapper builds an embedder with explicit options (backtracking
// budget, ranking policy, decomposition rules).
var NewConfiguredMapper = embed.New

// ApplyMapping realizes a mapping on a copy of the substrate: NFs placed,
// flowrules generated, bandwidth reserved.
var ApplyMapping = embed.Apply

// ReleaseMapping undoes an applied mapping in place.
var ReleaseMapping = embed.Release

// Re-exported constructors.
var (
	// NewNFFG returns an empty graph.
	NewNFFG = nffg.New
	// NewBuilder starts a declarative graph definition.
	NewBuilder = nffg.NewBuilder
	// BuildChain wires a service chain through existing nodes.
	BuildChain = nffg.BuildChain
	// NewEngine creates a deterministic dataplane engine.
	NewEngine = dataplane.NewEngine
	// NewMapper builds the default greedy+backtracking embedder.
	NewMapper = embed.NewDefault
	// NewFirstFit builds the first-fit baseline embedder.
	NewFirstFit = embed.NewFirstFit
	// NewRandomFit builds the random-fit baseline embedder.
	NewRandomFit = embed.NewRandom
	// NewDecompositionRules creates an empty NF decomposition catalogue.
	NewDecompositionRules = decomp.NewRules
	// NewResourceOrchestrator creates a multi-domain orchestrator.
	NewResourceOrchestrator = core.NewResourceOrchestrator
	// NewLocalOrchestrator creates a leaf-domain orchestrator: a resource
	// orchestrator whose one shard is the domain's substrate, and whose
	// commits program the devices through a Programmer.
	NewLocalOrchestrator = core.NewLocalOrchestrator
	// NewServiceLayer creates the user-facing service orchestrator.
	NewServiceLayer = service.NewOrchestrator
)

// Virtualization policies.
var (
	// TransparentView exposes resources one-to-one.
	TransparentView Virtualizer = core.Transparent{}
	// DomainView aggregates each domain into one BiS-BiS.
	DomainView Virtualizer = core.DomainBiSBiS{}
	// SingleView collapses everything into one BiS-BiS.
	SingleView Virtualizer = core.SingleBiSBiS{}
)
