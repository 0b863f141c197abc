package bench

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/topo"
)

// Kernel timings call the library layers' public functions directly, on the
// workload's own graphs as the built system holds them. A kernel runs up to
// kernelCalls times but no longer than kernelBudget, so the ring16 view codec
// (tens of milliseconds a call) cannot eat the run's time cap.
const (
	kernelCalls  = 200
	kernelBudget = 250 * time.Millisecond
)

// kernel is one library call under the stopwatch; its error ends the timings.
type kernel func() error

// timeKernel reports the median duration of f in microseconds.
func timeKernel(m *metricSet, name string, f kernel) error {
	var us []float64
	for start := time.Now(); len(us) < kernelCalls && (len(us) < 3 || time.Since(start) < kernelBudget); {
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("kernel %s: %w", name, err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1000)
	}
	m.timing(name, us, 0.50)
	return nil
}

// allocsKernel reports allocations per call, which repeat exactly.
func allocsKernel(m *metricSet, name string, f kernel) {
	m.set(name, testing.AllocsPerRun(3, func() { _ = f() }))
}

// kernels fills the nffg, embed, topo and virtualizer metrics. sample is one
// request of the workload's own kind.
func (e *env) kernels(m *metricSet, sample *nffg.NFFG) error {
	mdo := e.mdo()
	var shards []*nffg.NFFG
	for _, s := range mdo.ShardSnapshots() {
		shards = append(shards, s.Graph)
	}
	if len(shards) == 0 {
		return fmt.Errorf("kernels: no shard graphs")
	}
	dov, err := mdo.DoV()
	if err != nil {
		return err
	}
	view, err := mdo.View(context.Background())
	if err != nil {
		return err
	}
	mapper := embed.NewDefault()
	mapping, err := mapper.Map(dov, sample)
	if err != nil {
		return fmt.Errorf("kernels: mapping the sample request: %w", err)
	}
	work := dov.Copy()
	graph := dov.InfraTopo()
	saps := sample.SAPIDs()
	virt := core.SingleBiSBiS{NodeID: "bisbis@mdo"}
	var wire bytes.Buffer

	timed := []struct {
		name, allocs string
		f            kernel
	}{
		// One resident-laden shard: what every commit copies.
		{"nffg.copy_us", "nffg.copy_allocs", func() error { _ = shards[0].Copy(); return nil }},
		// The all-shard cut: what every generation change re-merges.
		{"nffg.merge_us", "nffg.merge_allocs", func() error {
			cut := nffg.New("cut")
			for _, g := range shards {
				if err := cut.Merge(g); err != nil {
					return err
				}
			}
			return nil
		}},
		// The MdO view on the wire: what every uncached read encodes and decodes.
		{"nffg.encode_us", "", func() error { wire.Reset(); return view.EncodeJSON(&wire) }},
		{"nffg.decode_us", "", func() error { _, err := nffg.DecodeJSON(bytes.NewReader(wire.Bytes())); return err }},
		{"core.virtualizer.view_us", "core.virtualizer.view_allocs", func() error { _, err := virt.View(dov); return err }},
		// One workload request on the merged DoV; applying it is timed with the
		// release that undoes it, the pair a churn cycle performs.
		{"embed.map_us", "embed.map_allocs", func() error { _, err := mapper.Map(dov, sample); return err }},
		{"embed.apply_us", "", func() error {
			if err := embed.ApplyTo(work, mapping); err != nil {
				return err
			}
			return embed.Release(work, mapping)
		}},
		// The sample's endpoints across the merged topology.
		{"topo.shortest_path_us", "", func() error {
			_, err := graph.ShortestPath(topo.NodeID(saps[0]), topo.NodeID(saps[len(saps)-1]), topo.PathOpts{})
			return err
		}},
	}
	for _, k := range timed {
		if err := timeKernel(m, k.name, k.f); err != nil {
			return err
		}
		if k.allocs != "" {
			allocsKernel(m, k.allocs, k.f)
		}
	}
	m.set("api.view_bytes", float64(wire.Len()))
	return nil
}
