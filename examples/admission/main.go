// Admission: the batched-admission story — a burst of concurrent service
// requests hits one multi-domain orchestrator twice, first directly (every
// install races on the DoV generation counter) and then through the
// admission queue (the burst coalesces into a handful of batch commits), and
// the pipeline counters show the difference. The second half drives the same
// queue over HTTP with the async jobs API: submit returns a job ID
// immediately, a watcher long-polls it to completion — carrying a tenant
// identity over the X-Unify-Tenant header. The final round is the
// multi-tenant fairness story: an "elephant" tenant parks a deep backlog and
// a "mouse" tenant submits one job, first against the FIFO baseline (the
// mouse waits out the whole backlog) and then under the weighted-fair
// scheduler (the mouse rides the next batch).
//
//	go run ./examples/admission
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/api"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

const (
	domains = 4
	// slots is how many independent service chains each domain hosts: every
	// chain needs its own SAP pair (chains sharing an untagged SAP-facing
	// port would collide), so each leaf exports 2*slots user SAPs.
	slots = 5
)

// buildRO assembles a 4-domain line under one resource orchestrator, each
// leaf with a 5ms simulated device-programming latency.
func buildRO() *core.ResourceOrchestrator {
	ro := core.NewResourceOrchestrator(core.Config{ID: "mdo"})
	slow := core.ProgrammerFunc(func(ctx context.Context, _ *nffg.Delta, _ *nffg.NFFG) error {
		select {
		case <-time.After(5 * time.Millisecond):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	for i := 0; i < domains; i++ {
		name := fmt.Sprintf("d%d", i)
		left := nffg.ID(fmt.Sprintf("b%d", i-1))
		if i == 0 {
			left = "sap1"
		}
		right := nffg.ID(fmt.Sprintf("b%d", i))
		if i == domains-1 {
			right = "sap2"
		}
		node := nffg.ID(name + "-n")
		b := nffg.NewBuilder(name).
			BiSBiS(node, name, 2+2*slots, nffg.Resources{CPU: 1 << 16, Mem: 1 << 24, Storage: 1 << 16},
				"firewall", "dpi", "nat", "compress").
			SAP(left).SAP(right).
			Link("l", left, "1", node, "1", 1e6, 1).
			Link("r", node, "2", right, "1", 1e6, 1)
		for j := 0; j < slots; j++ {
			in, out := userSAPs(i, j)
			b.SAP(in).SAP(out).
				Link(fmt.Sprintf("ui%d", j), in, "1", node, fmt.Sprint(3+2*j), 1e6, 1).
				Link(fmt.Sprintf("uo%d", j), node, fmt.Sprint(4+2*j), out, "1", 1e6, 1)
		}
		lo, err := core.NewLocalOrchestrator(core.LocalConfig{ID: name, Substrate: b.MustBuild(), Programmer: slow})
		if err != nil {
			log.Fatal(err)
		}
		if err := ro.Attach(context.Background(), lo); err != nil {
			log.Fatal(err)
		}
	}
	return ro
}

// userSAPs names the dedicated ingress/egress SAP pair of slot j in domain i.
func userSAPs(i, j int) (nffg.ID, nffg.ID) {
	return nffg.ID(fmt.Sprintf("u%d-%din", i, j)), nffg.ID(fmt.Sprintf("u%d-%dout", i, j))
}

// slotReq pins a 1-NF chain onto slot j of domain i.
func slotReq(id string, i, j int) *nffg.NFFG {
	in, out := userSAPs(i, j)
	nf := nffg.ID(id + "-nf")
	g := nffg.NewBuilder(id).
		SAP(in).SAP(out).
		NF(nf, "firewall", 2, nffg.Resources{CPU: 2, Mem: 512, Storage: 1}).
		Chain(id, 1, 0, in, nf, out).
		MustBuild()
	g.NFs.Get(nf).Host = nffg.ID(fmt.Sprintf("bisbis@d%d", i))
	return g
}

func burst(install func(context.Context, *nffg.NFFG) (*unify.Receipt, error), prefix string, n int) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := slotReq(fmt.Sprintf("%s%d", prefix, i), i%domains, i/domains)
			if _, err := install(context.Background(), req); err != nil {
				log.Printf("install %s%d: %v", prefix, i, err)
			}
		}(i)
	}
	wg.Wait()
	return time.Since(start)
}

func main() {
	log.SetFlags(0)
	const n = 16

	// Round 1: the burst hits the orchestrator directly.
	direct := buildRO()
	directTime := burst(direct.Install, "direct", n)
	ds := direct.PipelineStats()
	fmt.Printf("direct:  %2d installs in %6s — %d mapping passes, %d generation conflicts\n",
		ds.Installs, directTime.Round(time.Millisecond), ds.MapAttempts, ds.GenConflicts)

	// Round 2: same burst through the admission queue.
	ro := buildRO()
	q := admission.New(ro, admission.Options{})
	defer q.Close()
	batchedTime := burst(q.Install, "batched", n)
	bs := ro.PipelineStats()
	qs := q.Stats()
	fmt.Printf("batched: %2d installs in %6s — %d mapping passes, %d generation conflicts, %d batches (max %d jobs)\n",
		bs.Installs, batchedTime.Round(time.Millisecond), bs.MapAttempts, bs.GenConflicts, qs.Batches, qs.MaxBatch)

	// The async northbound API over the same queue: 202 + job ID, then watch.
	srv := api.NewServer(ro, nil).WithAdmission(q)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	cli, err := api.Dial("mdo", "http://"+addr)
	if err != nil {
		log.Fatal(err)
	}
	// The submission carries a tenant identity: the client maps it onto the
	// X-Unify-Tenant header, the remote queue schedules (and accounts) the
	// job under that tenant.
	actx := unify.WithMeta(context.Background(), unify.RequestMeta{Tenant: "acme"})
	job, err := cli.SubmitAsync(actx, slotReq("async-svc", 0, slots-1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nasync submit: %s is %s (connection already free)\n", job.ID, job.State)
	done, err := cli.WaitJob(context.Background(), job.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("watch: %s is %s after %s (batch of %d, %d mapping attempt(s))\n",
		done.ID, done.State, done.Finished.Sub(done.Submitted).Round(time.Millisecond), done.Batch, done.Attempts)
	if done.Receipt == nil {
		log.Fatalf("job did not deploy: %s", done.Error)
	}
	for nf, host := range done.Receipt.Placements {
		fmt.Printf("  %-12s -> %s\n", nf, host)
	}
	if ts, ok := q.Stats().Tenants["acme"]; ok {
		fmt.Printf("tenant acme: submitted=%d deployed=%d (weight %d)\n", ts.Submitted, ts.Deployed, ts.Weight)
	}

	// Round 3: weighted fairness. An elephant tenant parks a 16-job backlog,
	// then a mouse tenant submits one job. Under FIFO the mouse waits out the
	// whole backlog; under DWRR it is guaranteed its share of the very next
	// scheduling round. The per-tenant in-flight cap keeps the elephant's
	// excess in the queue — where the scheduler owns the order — instead of
	// piled onto the dispatch lanes.
	fmt.Println()
	const elephants = 16
	for _, mode := range []struct {
		name string
		fifo bool
	}{{"fifo", true}, {"dwrr", false}} {
		fro := buildRO()
		fq := admission.New(fro, admission.Options{
			MaxBatch:          4,
			TenantMaxInFlight: 4,
			DisableFairness:   mode.fifo,
		})
		ectx := unify.WithMeta(context.Background(), unify.RequestMeta{Tenant: "elephant"})
		var ids []string
		for i := 0; i < elephants; i++ {
			j, err := fq.Submit(ectx, slotReq(fmt.Sprintf("%s-eleph%d", mode.name, i), i%domains, i/domains))
			if err != nil {
				log.Fatal(err)
			}
			ids = append(ids, j.ID)
		}
		mctx := unify.WithMeta(context.Background(), unify.RequestMeta{Tenant: "mouse"})
		mj, err := fq.Submit(mctx, slotReq(mode.name+"-mouse", 0, slots-1))
		if err != nil {
			log.Fatal(err)
		}
		mdone, err := fq.Wait(context.Background(), mj.ID)
		if err != nil {
			log.Fatal(err)
		}
		for _, id := range ids {
			if _, err := fq.Wait(context.Background(), id); err != nil {
				log.Fatal(err)
			}
		}
		st := fq.Stats()
		fmt.Printf("%s: mouse queued %6s behind a %d-job elephant backlog (mouse %s, elephant mean wait %s)\n",
			mode.name, mdone.Started.Sub(mdone.Submitted).Round(time.Millisecond), elephants,
			mdone.State, st.Tenants["elephant"].MeanWait().Round(time.Millisecond))
		fq.Close()
	}
}
