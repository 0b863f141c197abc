package escape

// E14: elastic-fleet failover benchmarks. The robustness tentpole's headline
// question: when a domain dies under load, how fast does the fleet controller
// notice, detach it, and re-embed its services onto the survivors — and does
// anyone else even notice?
//
//	failover — kill one of three domains while disjoint tenants keep
//	           installing on the survivors. Gated, exact: every victim
//	           service re-embedded (services-rehomed), zero survivor
//	           requests lost (requests-lost). Reported, warn-only:
//	           wall-clock from the kill to the last re-embed
//	           (ms-to-rehomed — includes probe detection latency, so it is
//	           timing-sensitive by design).
import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/fleet"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// benchE14Domain wraps the trivial E7 leaf with a kill switch: once killed it
// refuses probes, views and installs, like a kill -9'd process behind a dead
// TCP peer.
type benchE14Domain struct {
	*benchE7Domain
	dead atomic.Bool
}

var errE14Dead = errors.New("e14: connection refused")

// Ping implements fleet.Pinger, so the prober exercises the cheap-probe path.
func (d *benchE14Domain) Ping(context.Context) error {
	if d.dead.Load() {
		return errE14Dead
	}
	return nil
}

func (d *benchE14Domain) View(ctx context.Context) (*nffg.NFFG, error) {
	if d.dead.Load() {
		return nil, errE14Dead
	}
	return d.benchE7Domain.View(ctx)
}

func (d *benchE14Domain) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	if d.dead.Load() {
		return nil, errE14Dead
	}
	return d.benchE7Domain.Install(ctx, req)
}

// benchE14Substrate builds one member's view: `shared` fleet-wide SAP slot
// pairs (the same SAP IDs on every member, so a chain displaced from one
// domain can re-embed on any other) plus `slots` member-private pairs for the
// survivor load.
func benchE14Substrate(name string, idx, shared, slots int) *nffg.NFFG {
	node := nffg.ID(fmt.Sprintf("e14d%d-n", idx))
	bl := nffg.NewBuilder(name).
		BiSBiS(node, name, 2*(shared+slots), nffg.Resources{CPU: 1 << 20, Mem: 1 << 30, Storage: 1 << 20},
			"firewall", "dpi", "nat")
	port := 1
	for j := 0; j < shared; j++ {
		in := nffg.ID(fmt.Sprintf("e14f%din", j))
		out := nffg.ID(fmt.Sprintf("e14f%dout", j))
		bl.SAP(in).SAP(out).
			Link(fmt.Sprintf("fi%d", j), in, "1", node, fmt.Sprint(port), 1e6, 1).
			Link(fmt.Sprintf("fo%d", j), node, fmt.Sprint(port+1), out, "1", 1e6, 1)
		port += 2
	}
	for j := 0; j < slots; j++ {
		in := nffg.ID(fmt.Sprintf("e14u%d-%din", idx, j))
		out := nffg.ID(fmt.Sprintf("e14u%d-%dout", idx, j))
		bl.SAP(in).SAP(out).
			Link(fmt.Sprintf("ui%d", j), in, "1", node, fmt.Sprint(port), 1e6, 1).
			Link(fmt.Sprintf("uo%d", j), node, fmt.Sprint(port+1), out, "1", 1e6, 1)
		port += 2
	}
	return bl.MustBuild()
}

// benchE14Chain builds a 3-NF chain between a SAP pair, optionally pinned to
// a host node (pins to a dead node are cleared by Detach, so a pinned victim
// chain re-embeds freely on the survivors).
func benchE14Chain(id string, in, out nffg.ID, host nffg.ID) *nffg.NFFG {
	bl := nffg.NewBuilder(id).SAP(in).SAP(out)
	nodes := []nffg.ID{in}
	for k, typ := range []string{"firewall", "dpi", "nat"} {
		nf := nffg.ID(fmt.Sprintf("%s-nf%d", id, k))
		bl.NF(nf, typ, 2, nffg.Resources{CPU: 2, Mem: 512, Storage: 1})
		nodes = append(nodes, nf)
	}
	nodes = append(nodes, out)
	bl.Chain(id, 1, 0, nodes...)
	g := bl.MustBuild()
	if host != "" {
		for _, nf := range g.NFs.All() {
			nf.Host = host
		}
	}
	return g
}

func BenchmarkE14Failover(b *testing.B) {
	const domains, victims, loadSlots = 3, 4, 2

	b.Run(fmt.Sprintf("failover/domains=%d/services=%d", domains, victims), func(b *testing.B) {
		var rehomed, lost, survivorOK float64
		var toRehome time.Duration
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ctx := context.Background()
			ro := core.NewResourceOrchestrator(core.Config{ID: "mdo"})
			fc := fleet.New(fleet.Config{
				Orchestrator:  ro,
				ProbeInterval: 2 * time.Millisecond,
				ProbeTimeout:  50 * time.Millisecond,
				ProbeRetries:  -1,
				DegradeAfter:  1,
				EvictAfter:    2,
				MaxMigrations: 2,
			})
			members := make([]*benchE14Domain, domains)
			for d := 0; d < domains; d++ {
				name := fmt.Sprintf("e14d%d", d)
				members[d] = &benchE14Domain{benchE7Domain: &benchE7Domain{
					id:       name,
					view:     benchE14Substrate(name, d, victims, loadSlots),
					services: map[string]bool{},
				}}
				if err := fc.Add(ctx, members[d]); err != nil {
					b.Fatal(err)
				}
			}
			// The victim's tenant pins its chains onto domain 0.
			victimNode := nffg.ID("e14d0-n")
			want := map[string]bool{}
			for v := 0; v < victims; v++ {
				id := fmt.Sprintf("e14v-%d", v)
				want[id] = true
				req := benchE14Chain(id,
					nffg.ID(fmt.Sprintf("e14f%din", v)), nffg.ID(fmt.Sprintf("e14f%dout", v)),
					victimNode)
				if _, err := ro.Install(unify.WithMeta(ctx, unify.RequestMeta{Tenant: "victim"}), req); err != nil {
					b.Fatal(err)
				}
			}

			// Disjoint tenants: one worker per survivor slot, each cycling
			// install/remove on that survivor's private SAP pair. None of
			// their chains touch domain 0, so the SLO is zero lost requests.
			var iterLost, iterOK atomic.Uint64
			// Each distinct error behind requests-lost, with its count.
			var lossMu sync.Mutex
			losses := map[string]int{}
			lose := func(op string, err error) {
				iterLost.Add(1)
				lossMu.Lock()
				losses[op+": "+err.Error()]++
				lossMu.Unlock()
			}
			stopLoad := make(chan struct{})
			var wg sync.WaitGroup
			for d := 1; d < domains; d++ {
				for j := 0; j < loadSlots; j++ {
					wg.Add(1)
					go func(d, j int) {
						defer wg.Done()
						tctx := unify.WithMeta(ctx, unify.RequestMeta{Tenant: fmt.Sprintf("t%d-%d", d, j)})
						in := nffg.ID(fmt.Sprintf("e14u%d-%din", d, j))
						out := nffg.ID(fmt.Sprintf("e14u%d-%dout", d, j))
						for n := 0; ; n++ {
							select {
							case <-stopLoad:
								return
							default:
							}
							id := fmt.Sprintf("e14l-%d-%d-%d", d, j, n)
							if _, err := ro.Install(tctx, benchE14Chain(id, in, out, "")); err != nil {
								lose("install", err)
								continue
							}
							if err := ro.Remove(tctx, id); err != nil {
								lose("remove", err)
								continue
							}
							iterOK.Add(1)
						}
					}(d, j)
				}
			}

			fc.Run()
			b.StartTimer()
			t0 := time.Now()
			members[0].dead.Store(true)

			// The failover window: probe detection + detach + re-embedding.
			deadline := time.Now().Add(30 * time.Second)
			for {
				st := fc.Stats()
				if st.Detached == 1 {
					have := map[string]bool{}
					for _, id := range ro.Services() {
						have[id] = true
					}
					all := true
					for id := range want {
						all = all && have[id]
					}
					if all {
						break
					}
				}
				if time.Now().After(deadline) {
					b.Fatalf("failover incomplete: stats=%+v services=%v", st, ro.Services())
				}
				time.Sleep(time.Millisecond)
			}
			toRehome = time.Since(t0)
			b.StopTimer()

			close(stopLoad)
			wg.Wait()
			fc.Stop()
			for _, msg := range slices.Sorted(maps.Keys(losses)) {
				b.Logf("requests-lost: %d× %s", losses[msg], msg)
			}

			st := fc.Stats()
			if st.Evictions != 1 || st.RehomeFailures != 0 {
				b.Fatalf("fleet stats after failover: %+v", st)
			}
			rehomed = float64(st.ServicesRehomed)
			lost = float64(iterLost.Load())
			survivorOK = float64(iterOK.Load())
			if survivorOK == 0 {
				b.Fatal("survivor load produced no completed requests — the SLO is vacuous")
			}
		}
		b.ReportMetric(rehomed, "services-rehomed")
		b.ReportMetric(lost, "requests-lost")
		b.ReportMetric(survivorOK, "survivor-requests")
		b.ReportMetric(float64(toRehome.Microseconds())/1000, "ms-to-rehomed")
	})
}
