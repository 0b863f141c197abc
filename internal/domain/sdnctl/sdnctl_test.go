package sdnctl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

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

// countingCtx reports Canceled after its Err budget is spent: deterministic
// mid-delta cancellation without racing a timer against the send loop.
type countingCtx struct {
	context.Context
	mu     sync.Mutex
	budget int
}

func (c *countingCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 {
		return context.Canceled
	}
	c.budget--
	return nil
}

func TestCommitHonorsCancellationMidDelta(t *testing.T) {
	d := newDomain(t)
	// A delta large enough that cancellation must strike mid-stream: 100
	// rules per switch, with an Err budget covering only the entry check and
	// the first couple of sends.
	delta := &nffg.Delta{AddRules: map[nffg.ID][]*nffg.Flowrule{}}
	total := 0
	for _, swID := range []nffg.ID{"sdn-s1", "sdn-s2"} {
		for i := 0; i < 100; i++ {
			delta.AddRules[swID] = append(delta.AddRules[swID], &nffg.Flowrule{
				ID:     fmt.Sprintf("%s-r%d", swID, i),
				Match:  nffg.Match{InPort: nffg.PortRef{Port: "1"}},
				Action: nffg.Action{Output: nffg.PortRef{Port: "2"}},
			})
			total++
		}
	}
	ctx := &countingCtx{Context: context.Background(), budget: 3}
	err := d.commit(ctx, delta, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	installed := 0
	for _, swID := range d.Net().SwitchIDs() {
		sw, _ := d.Net().Switch(swID)
		installed += sw.Table.Len()
	}
	if installed >= total {
		t.Fatalf("cancellation mid-delta should stop the stream: %d/%d rules landed", installed, total)
	}
}

func TestCommitRecordsSouthboundStats(t *testing.T) {
	d := newDomain(t)
	req := nffg.NewBuilder("transit1").
		SAP("b-west").SAP("b-east").
		MustBuild()
	if _, err := nffg.BuildChain(req, "t", 50, 0, "b-west", "b-east"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Install(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	st := d.SouthboundStats()
	if st.Deltas != 1 {
		t.Fatalf("deltas: %+v", st)
	}
	rules := 0
	for _, swID := range d.Net().SwitchIDs() {
		sw, _ := d.Net().Switch(swID)
		rules += sw.Table.Len()
	}
	if st.FlowMods != uint64(rules) {
		t.Fatalf("flow-mods %d, rules on switches %d", st.FlowMods, rules)
	}
	// One barrier per touched datapath, not per rule.
	if st.Barriers == 0 || st.Barriers > 2 {
		t.Fatalf("barriers: %d, want 1 per touched datapath (<=2)", st.Barriers)
	}
	if st.MeanDeltaLatency() <= 0 {
		t.Fatalf("latency not recorded: %+v", st)
	}
}
