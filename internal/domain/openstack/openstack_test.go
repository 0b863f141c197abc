package openstack

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
)

func res(cpu, mem float64) nffg.Resources { return nffg.Resources{CPU: cpu, Mem: mem, Storage: cpu} }

func substrate(t testing.TB) *nffg.NFFG {
	t.Helper()
	g, err := nffg.NewBuilder("os-sub").
		BiSBiS("os-compute1", "openstack", 4, res(32, 65536), "firewall", "dpi", "nat", "cache").
		SAP("sapX").SAP("sapY").
		Link("u1", "sapX", "1", "os-compute1", "1", 1000, 0.5).
		Link("u2", "os-compute1", "2", "sapY", "1", 1000, 0.5).
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

func request(t testing.TB, id, nfType string) *nffg.NFFG {
	t.Helper()
	g, err := nffg.NewBuilder(id).
		SAP("sapX").SAP("sapY").
		NF(nffg.ID(id+"-nf"), nfType, 2, res(2, 4096)).
		Chain(id, 100, 0, "sapX", nffg.ID(id+"-nf"), "sapY").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNovaAPIDirect(t *testing.T) {
	d := newDomain(t)
	base := d.Cloud().BaseURL()
	// Flavors.
	resp, err := http.Get(base + "/v2.1/flavors")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fl struct {
		Flavors []Flavor `json:"flavors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fl); err != nil {
		t.Fatal(err)
	}
	if len(fl.Flavors) != 3 {
		t.Fatalf("flavors: %+v", fl.Flavors)
	}
	// Boot a server by hand.
	body := `{"server":{"name":"manual-vm","flavorRef":"m1.small","metadata":{"nf_type":"nat","host":"os-compute1","ports":"1,2"}}}`
	resp2, err := http.Post(base+"/v2.1/servers", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("boot status %d", resp2.StatusCode)
	}
	if got := d.Cloud().Servers(); len(got) != 1 || got[0].Status != "ACTIVE" {
		t.Fatalf("servers: %+v", got)
	}
	// Bad boot: missing metadata.
	resp3, err := http.Post(base+"/v2.1/servers", "application/json", strings.NewReader(`{"server":{"name":"x"}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad boot status %d", resp3.StatusCode)
	}
}

func TestInstallBootsVMAndProgramsFabric(t *testing.T) {
	d := newDomain(t)
	receipt, err := d.Install(context.Background(), request(t, "svc1", "dpi"))
	if err != nil {
		t.Fatal(err)
	}
	if receipt.Placements["svc1-nf"] != "os-compute1" {
		t.Fatalf("placement: %v", receipt.Placements)
	}
	servers := d.Cloud().Servers()
	if len(servers) != 1 || servers[0].ID != "svc1-nf" || servers[0].Metadata["nf_type"] != "dpi" {
		t.Fatalf("servers: %+v", servers)
	}
	sw, _ := d.Cloud().Net().Switch("os-compute1")
	if sw.Table.Len() == 0 {
		t.Fatal("fabric not programmed")
	}
}

// The leaf times every adapter's deltas, this one's REST calls included.
func TestInstallRecordsSouthboundDelta(t *testing.T) {
	d := newDomain(t)
	if _, err := d.Install(context.Background(), request(t, "svc1", "dpi")); err != nil {
		t.Fatal(err)
	}
	if st := d.SouthboundStats(); st.Deltas != 1 || st.MeanDeltaLatency() <= 0 {
		t.Fatalf("one install should record one timed delta: %+v", st)
	}
}

func TestEndToEndTrafficThroughVM(t *testing.T) {
	d := newDomain(t)
	if _, err := d.Install(context.Background(), request(t, "svc1", "nat")); err != nil {
		t.Fatal(err)
	}
	sapX, _ := d.Cloud().Net().SAP("sapX")
	sapY, _ := d.Cloud().Net().SAP("sapY")
	sapX.Send("sapY", 400)
	d.Cloud().Net().Eng.RunToIdle()
	got := sapY.Received()
	if len(got) != 1 {
		t.Fatalf("deliveries: %d", len(got))
	}
	trace := strings.Join(got[0].Trace, ",")
	if !strings.Contains(trace, "vm:nat:svc1-nf") {
		t.Fatalf("traffic must traverse the VM-hosted NAT: %s", trace)
	}
}

func TestRemoveDeletesServerAndFlows(t *testing.T) {
	d := newDomain(t)
	if _, err := d.Install(context.Background(), request(t, "svc1", "cache")); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove(context.Background(), "svc1"); err != nil {
		t.Fatal(err)
	}
	if len(d.Cloud().Servers()) != 0 {
		t.Fatal("server should be deleted")
	}
	sw, _ := d.Cloud().Net().Switch("os-compute1")
	if sw.Table.Len() != 0 {
		t.Fatal("flows should be removed")
	}
}

func TestODLStats(t *testing.T) {
	d := newDomain(t)
	if _, err := d.Install(context.Background(), request(t, "svc1", "firewall")); err != nil {
		t.Fatal(err)
	}
	sapX, _ := d.Cloud().Net().SAP("sapX")
	for i := 0; i < 3; i++ {
		sapX.Send("sapY", 100)
	}
	d.Cloud().Net().Eng.RunToIdle()
	resp, err := http.Get(d.Cloud().BaseURL() + "/restconf/operational/stats/os-compute1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Flows []struct {
			ID      string `json:"id"`
			Packets uint64 `json:"packets"`
		} `json:"flows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, f := range st.Flows {
		total += f.Packets
	}
	if total == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestFlavorSelection(t *testing.T) {
	cases := []struct {
		r    nffg.Resources
		want string
	}{
		{nffg.Resources{CPU: 1, Mem: 1024}, "m1.small"},
		{nffg.Resources{CPU: 2, Mem: 4096}, "m1.medium"},
		{nffg.Resources{CPU: 8, Mem: 32768}, "m1.large"},
	}
	for _, c := range cases {
		if got := flavorFor(c.r); got != c.want {
			t.Errorf("flavorFor(%+v) = %s, want %s", c.r, got, c.want)
		}
	}
}

// countingTransport counts the connections it dials, the calls that got a
// response and, among them, the POSTs and PUTs; after is called once each
// round trip has returned.
type countingTransport struct {
	base                 *http.Transport
	dials, calls, writes atomic.Int32
	after                func()
}

func newCountingTransport() *countingTransport {
	ct := &countingTransport{}
	dialer := &net.Dialer{}
	ct.base = &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		ct.dials.Add(1)
		return dialer.DialContext(ctx, network, addr)
	}}
	return ct
}

func (ct *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := ct.base.RoundTrip(req)
	if err == nil {
		ct.calls.Add(1)
		if req.Method == http.MethodPost || req.Method == http.MethodPut {
			ct.writes.Add(1)
		}
	}
	if ct.after != nil {
		ct.after()
	}
	return resp, err
}

// TestRESTCallsReuseOneConnection: every REST call of an install and a
// remove rides one keep-alive connection.
func TestRESTCallsReuseOneConnection(t *testing.T) {
	d := newDomain(t)
	ct := newCountingTransport()
	t.Cleanup(ct.base.CloseIdleConnections)
	d.client = &http.Client{Transport: ct}
	ctx := context.Background()
	for _, id := range []string{"svc1", "svc2"} {
		if _, err := d.Install(ctx, request(t, id, "firewall")); err != nil {
			t.Fatal(err)
		}
		if err := d.Remove(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if n := ct.calls.Load(); n < 8 {
		t.Fatalf("expected at least 8 REST calls, saw %d", n)
	}
	if n := ct.dials.Load(); n != 1 {
		t.Fatalf("%d REST calls dialed %d connections, want 1", ct.calls.Load(), n)
	}
}

// TestCanceledDeltaStopsBetweenCalls: a ctx canceled after the first REST
// call of a delta fails the install with the context error before the next
// call, the leaf records no service, the leaf's undo deletes the server that
// first call booted, and the same request then installs.
func TestCanceledDeltaStopsBetweenCalls(t *testing.T) {
	d := newDomain(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ct := newCountingTransport()
	t.Cleanup(ct.base.CloseIdleConnections)
	ct.after = cancel
	d.client = &http.Client{Transport: ct}
	req := request(t, "svc1", "dpi")
	_, err := d.Install(ctx, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("install under a canceled delta: %v", err)
	}
	if n := ct.writes.Load(); n != 1 {
		t.Fatalf("the delta made %d boot/put calls, want it stopped after 1", n)
	}
	if got := d.Services(); len(got) != 0 {
		t.Fatalf("canceled install recorded services %v", got)
	}
	if got := d.Cloud().Servers(); len(got) != 0 {
		t.Fatalf("canceled install left servers %v", got)
	}
	if _, err := d.Install(context.Background(), req); err != nil {
		t.Fatalf("retry of the canceled install: %v", err)
	}
}
