package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// generationLog remembers every configuration graph it is shown, with its
// encoding at that moment. Commits build the next generation as a fork that
// shares every entity it does not write with the graph it replaces, so an
// old generation that re-encodes differently was written through a shared
// entity.
type generationLog struct {
	mu   sync.Mutex
	encs map[*nffg.NFFG][]byte
}

func (l *generationLog) record(t testing.TB, g *nffg.NFFG) {
	if g == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.encs[g]; !ok {
		l.encs[g] = graphBytes(t, g)
	}
}

// sampleShards records the current graph of every DoV shard.
func (l *generationLog) sampleShards(t testing.TB, ro *ResourceOrchestrator) {
	dir, _ := ro.snapshotDir()
	for _, s := range dir.shards {
		s.mu.Lock()
		g := s.dov
		s.mu.Unlock()
		l.record(t, g)
	}
}

// loggingProgrammer records the configuration a leaf is about to commit (its
// next lo.cfg) and, since a leaf programs while its parent's commit is the
// current DoV, every shard of the parent.
type loggingProgrammer struct {
	t     testing.TB
	log   *generationLog
	ro    *ResourceOrchestrator
	inner Programmer
}

func (p *loggingProgrammer) Commit(ctx context.Context, d *nffg.Delta, cfg *nffg.NFFG) error {
	p.log.record(p.t, cfg)
	if p.ro != nil {
		p.log.sampleShards(p.t, p.ro)
	}
	return p.inner.Commit(ctx, d, cfg)
}

// TestOldGenerationsNeverChange runs a resource orchestrator over two leaves
// through single-shard installs (alone and batched), a multi-shard transit
// install, a child-failure rollback, removes and a Detach, recording every
// leaf configuration and DoV shard graph while it is current. At the end each
// one must encode exactly as it did then.
func TestOldGenerationsNeverChange(t *testing.T) {
	ctx := context.Background()
	gens := &generationLog{encs: map[*nffg.NFFG][]byte{}}
	progA := &loggingProgrammer{t: t, log: gens, inner: &recordingProgrammer{}}
	progB := &loggingProgrammer{t: t, log: gens, inner: &recordingProgrammer{failPfx: "bad"}}
	ro, loA, loB := buildMdO(t, progA, progB)
	progA.ro, progB.ro = ro, ro
	sample := func() {
		t.Helper()
		for _, lo := range []*LocalOrchestrator{loA, loB} {
			cfg, _ := lo.snapshot()
			gens.record(t, cfg)
		}
		gens.sampleShards(t, ro)
	}
	install := func(req *nffg.NFFG) {
		t.Helper()
		if _, err := ro.Install(ctx, req); err != nil {
			t.Fatalf("install %s: %v", req.ID, err)
		}
		sample()
	}
	remove := func(id string) {
		t.Helper()
		if err := ro.Remove(ctx, id); err != nil {
			t.Fatalf("remove %s: %v", id, err)
		}
		sample()
	}
	pinned := func(id string, a, b nffg.ID, nfType string, host nffg.ID) *nffg.NFFG {
		req := chainReq(t, id, a, b, nfType)
		req.NFs[nffg.ID(id+"-nf")].Host = host
		return req
	}
	transit := func(id string) *nffg.NFFG {
		return nffg.NewBuilder(id).
			SAP("sap1").SAP("sap2").
			NF(nffg.ID(id+"-fw"), "fw", 2, res(2, 512)).
			NF(nffg.ID(id+"-nat"), "nat", 2, res(2, 512)).
			Chain(id, 10, 0, "sap1", nffg.ID(id+"-fw"), nffg.ID(id+"-nat"), "sap2").
			MustBuild()
	}
	sample()

	// Two requests of one batch on one shard share the group's working fork.
	for i, out := range ro.InstallBatch(ctx, []*nffg.NFFG{
		pinned("a1", "sap1", "b-ab", "fw", "bisbis@domA"),
		pinned("a2", "b-ab", "sap1", "nat", "bisbis@domA"),
	}, unify.BatchObserver{}) {
		if out.Err != nil {
			t.Fatalf("batch install %d: %v", i, out.Err)
		}
	}
	sample()
	install(pinned("b1", "sap2", "b-ab", "dpi", "bisbis@domB"))

	bad := transit("bad")
	bad.NFs["bad-nat"].Host = "bisbis@domB"
	if _, err := ro.Install(ctx, bad); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("install on a failing child: %v", err)
	}
	sample()
	install(transit("t1"))

	remove("a1")
	remove("t1")
	install(transit("t2"))
	if _, err := ro.Detach(ctx, "domB"); err != nil {
		t.Fatal(err)
	}
	sample()
	install(pinned("a3", "sap1", "b-ab", "fw", "bisbis@domA"))
	remove("a2")

	if len(gens.encs) < 20 {
		t.Fatalf("recorded only %d generations", len(gens.encs))
	}
	for g, enc := range gens.encs {
		if got := graphBytes(t, g); string(got) != string(enc) {
			t.Errorf("generation %s v%d changed after it was replaced:\nthen %s\nnow  %s", g.ID, g.Version, enc, got)
		}
	}
}
