package sdnctl

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/domain/emunet"
	"github.com/unify-repro/escape/internal/domain/mininet"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// transit substrate: two legacy switches connecting two border SAPs.
func substrate(t testing.TB) *nffg.NFFG {
	t.Helper()
	g, err := nffg.NewBuilder("sdn-sub").
		Switch("sdn-s1", "sdn", 4).
		Switch("sdn-s2", "sdn", 4).
		SAP("b-west").SAP("b-east").
		Link("w", "b-west", "1", "sdn-s1", "1", 1000, 1).
		Link("m", "sdn-s1", "2", "sdn-s2", "1", 1000, 2).
		Link("e", "sdn-s2", "2", "b-east", "1", 1000, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newDomain(t *testing.T) *Domain {
	t.Helper()
	d, err := New(Config{Substrate: substrate(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestRejectsComputeSubstrate(t *testing.T) {
	bad := nffg.NewBuilder("bad").
		BiSBiS("x", "sdn", 2, nffg.Resources{CPU: 4}, "firewall").
		MustBuild()
	if _, err := New(Config{Substrate: bad}); err == nil {
		t.Fatal("compute nodes must be rejected in a legacy SDN domain")
	}
}

func TestTransitInstall(t *testing.T) {
	d := newDomain(t)
	// Pure transit request: a hop between the two border SAPs, no NFs.
	req := nffg.NewBuilder("transit1").
		SAP("b-west").SAP("b-east").
		MustBuild()
	if _, err := nffg.BuildChain(req, "t", 50, 0, "b-west", "b-east"); err != nil {
		t.Fatal(err)
	}
	receipt, err := d.Install(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(receipt.HopPaths) != 1 {
		t.Fatalf("hop paths: %v", receipt.HopPaths)
	}
	// Rules landed on both switches via the POX-like controller.
	for _, swID := range d.Net().SwitchIDs() {
		sw, _ := d.Net().Switch(swID)
		if sw.Table.Len() == 0 {
			t.Fatalf("switch %s not programmed", swID)
		}
	}
	if err := d.Remove(context.Background(), "transit1"); err != nil {
		t.Fatal(err)
	}
	for _, swID := range d.Net().SwitchIDs() {
		sw, _ := d.Net().Switch(swID)
		if sw.Table.Len() != 0 {
			t.Fatalf("switch %s rules remain", swID)
		}
	}
}

func TestRejectsNFRequests(t *testing.T) {
	d := newDomain(t)
	req := nffg.NewBuilder("withnf").
		SAP("b-west").SAP("b-east").
		NF("x", "firewall", 2, nffg.Resources{CPU: 1, Mem: 64, Storage: 1}).
		Chain("c", 10, 0, "b-west", "x", "b-east").
		MustBuild()
	if _, err := d.Install(context.Background(), req); !errors.Is(err, unify.ErrRejected) {
		t.Fatalf("NF requests must be rejected: %v", err)
	}
}

func TestForwardingOnlyView(t *testing.T) {
	d := newDomain(t)
	v, err := d.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range v.InfraIDs() {
		if len(v.Infras.Get(id).Supported) != 0 {
			t.Fatalf("view must advertise no NF support: %v", v.Infras.Get(id).Supported)
		}
	}
	caps := d.Capabilities()
	if len(caps) != 1 || string(caps[0]) != "forwarding" {
		t.Fatalf("capabilities: %v", caps)
	}
}

// ofDomain is what the shared OpenFlow path tests use of a domain.
type ofDomain interface {
	Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error)
	Remove(ctx context.Context, serviceID string) error
	SouthboundStats() core.SouthboundStats
	Net() *emunet.Net
}

// ofDomains are the two domains that program their switches through
// ofnet.Fabric, each with a request that puts rules on both its switches.
var ofDomains = []struct {
	name  string
	build func(t *testing.T) (ofDomain, *nffg.NFFG)
}{
	{"sdn", func(t *testing.T) (ofDomain, *nffg.NFFG) {
		req := nffg.NewBuilder("svc").SAP("b-west").SAP("b-east").MustBuild()
		if _, err := nffg.BuildChain(req, "t", 50, 0, "b-west", "b-east"); err != nil {
			t.Fatal(err)
		}
		return newDomain(t), req
	}},
	{"mininet", func(t *testing.T) (ofDomain, *nffg.NFFG) {
		res := nffg.Resources{CPU: 8, Mem: 4096, Storage: 8}
		sub := nffg.NewBuilder("mn-sub").
			BiSBiS("mn-s1", "mininet", 4, res, "firewall").
			BiSBiS("mn-s2", "mininet", 4, res, "firewall").
			SAP("sapA").SAP("sapB").
			Link("u1", "sapA", "1", "mn-s1", "1", 100, 1).
			Link("i1", "mn-s1", "2", "mn-s2", "1", 1000, 1).
			Link("u2", "mn-s2", "2", "sapB", "1", 100, 1).
			MustBuild()
		d, err := mininet.New(mininet.Config{Substrate: sub})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		req := nffg.NewBuilder("svc").
			SAP("sapA").SAP("sapB").
			NF("svc-nf", "firewall", 2, nffg.Resources{CPU: 2, Mem: 512, Storage: 2}).
			Chain("svc", 10, 0, "sapA", "svc-nf", "sapB").
			MustBuild()
		return d, req
	}},
}

// installedRules counts the rules on the domain's switches and the switches
// that hold any.
func installedRules(d ofDomain) (rules, switches int) {
	for _, swID := range d.Net().SwitchIDs() {
		sw, _ := d.Net().Switch(swID)
		if n := sw.Table.Len(); n > 0 {
			rules += n
			switches++
		}
	}
	return rules, switches
}

// sendCanceledCtx reports Canceled once Pipeline.Send has consulted it more
// than budget times: a cancellation inside the flow-mod phase, after some
// flow-mods were queued, without racing a timer against the send loop.
type sendCanceledCtx struct {
	context.Context
	mu       sync.Mutex
	budget   int
	sendErrs int
}

func (c *sendCanceledCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if calledFromSend() {
		c.sendErrs++
		c.budget--
	}
	if c.budget < 0 {
		return context.Canceled
	}
	return nil
}

// calledFromSend reports whether the caller of Err is Pipeline.Send.
func calledFromSend() bool {
	pcs := make([]uintptr, 4)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(3, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "openflow.(*Pipeline).Send") {
			return true
		}
		if !more {
			return false
		}
	}
}

func TestCommitHonorsCancellationMidDelta(t *testing.T) {
	for _, tc := range ofDomains {
		t.Run(tc.name, func(t *testing.T) {
			d, req := tc.build(t)
			ctx := &sendCanceledCtx{Context: context.Background(), budget: 1}
			if _, err := d.Install(ctx, req); !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			ctx.mu.Lock()
			sends := ctx.sendErrs
			ctx.mu.Unlock()
			if sends < 2 {
				t.Fatalf("cancellation must strike inside the flow-mod phase: Send checked the context %d times", sends)
			}
			// The same request on a fresh domain of the same kind, uncanceled.
			full, fullReq := tc.build(t)
			if _, err := full.Install(context.Background(), fullReq); err != nil {
				t.Fatal(err)
			}
			landed, _ := installedRules(d)
			total, _ := installedRules(full)
			if landed >= total {
				t.Fatalf("cancellation mid-delta should stop the stream: %d/%d rules landed", landed, total)
			}
		})
	}
}

// An install canceled inside its flow-mod phase leaves nothing behind: no
// rule stays on a switch, no NF its edit-config started keeps running, and
// the same request installs afterwards.
func TestCanceledInstallCanBeRetried(t *testing.T) {
	for _, tc := range ofDomains {
		t.Run(tc.name, func(t *testing.T) {
			d, req := tc.build(t)
			ctx := &sendCanceledCtx{Context: context.Background(), budget: 1}
			if _, err := d.Install(ctx, req); !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if nfs := d.Net().RunningNFs(); len(nfs) != 0 {
				t.Errorf("NFs still running after the canceled install: %v", nfs)
			}
			if rules, _ := installedRules(d); rules != 0 {
				t.Errorf("%d stray rules on the switches after the canceled install", rules)
			}
			if _, err := d.Install(context.Background(), req); err != nil {
				t.Fatalf("retry of the canceled install: %v", err)
			}
			full, fullReq := tc.build(t)
			if _, err := full.Install(context.Background(), fullReq); err != nil {
				t.Fatal(err)
			}
			got, _ := installedRules(d)
			want, _ := installedRules(full)
			if got != want {
				t.Errorf("%d rules after the retry, want %d as on a fresh domain", got, want)
			}
			if nfs, fullNFs := d.Net().RunningNFs(), full.Net().RunningNFs(); len(nfs) != len(fullNFs) {
				t.Errorf("running NFs after the retry: %v, want %d", nfs, len(fullNFs))
			}
		})
	}
}

func TestCommitRecordsSouthboundStats(t *testing.T) {
	for _, tc := range ofDomains {
		t.Run(tc.name, func(t *testing.T) {
			d, req := tc.build(t)
			if _, err := d.Install(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			rules, switches := installedRules(d)
			if rules == 0 || switches != 2 {
				t.Fatalf("%d rules on %d switches, want rules on both", rules, switches)
			}
			st := d.SouthboundStats()
			if st.Deltas != 1 {
				t.Fatalf("deltas: %+v", st)
			}
			if st.FlowMods != uint64(rules) {
				t.Fatalf("flow-mods %d, rules on switches %d", st.FlowMods, rules)
			}
			// One barrier per touched datapath, not per rule.
			if st.Barriers == 0 || st.Barriers > uint64(switches) {
				t.Fatalf("barriers: %d, want 1 per touched datapath (<=%d)", st.Barriers, switches)
			}
			if st.MeanDeltaLatency() <= 0 {
				t.Fatalf("latency not recorded: %+v", st)
			}
			// The removal deletes every rule, again one barrier per datapath.
			if err := d.Remove(context.Background(), req.ID); err != nil {
				t.Fatal(err)
			}
			if left, _ := installedRules(d); left != 0 {
				t.Fatalf("%d rules left after removal", left)
			}
			st = d.SouthboundStats()
			if st.Deltas != 2 || st.FlowMods != 2*uint64(rules) {
				t.Fatalf("after removal: deltas %d, flow-mods %d, want 2 and %d", st.Deltas, st.FlowMods, 2*rules)
			}
			if st.Barriers > 2*uint64(switches) {
				t.Fatalf("barriers after removal: %d, want <= %d", st.Barriers, 2*switches)
			}
		})
	}
}
