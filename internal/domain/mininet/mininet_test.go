package mininet

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/netconf"
	"github.com/unify-repro/escape/internal/nffg"
)

func res(cpu, mem float64) nffg.Resources { return nffg.Resources{CPU: cpu, Mem: mem, Storage: cpu} }

func substrate(t testing.TB) *nffg.NFFG {
	t.Helper()
	g, err := nffg.NewBuilder("mn-sub").
		BiSBiS("mn-s1", "mininet", 4, res(8, 4096), "firewall", "dpi").
		BiSBiS("mn-s2", "mininet", 4, res(8, 4096), "firewall", "nat").
		SAP("sapA").SAP("sapB").
		Link("u1", "sapA", "1", "mn-s1", "1", 100, 1).
		Link("i1", "mn-s1", "2", "mn-s2", "1", 1000, 1).
		Link("u2", "mn-s2", "2", "sapB", "1", 100, 1).
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
		SAP("sapA").SAP("sapB").
		NF(nffg.ID(id+"-nf"), nfType, 2, res(2, 512)).
		Chain(id, 10, 0, "sapA", nffg.ID(id+"-nf"), "sapB").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDomainExportsSingleBiSBiS(t *testing.T) {
	d := newDomain(t)
	v, err := d.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Infras.Len() != 1 {
		t.Fatalf("view: %s", v.Render())
	}
	agg := v.Infras.Get("bisbis@mininet")
	if agg == nil || !agg.SupportsNF("firewall") || !agg.SupportsNF("nat") {
		t.Fatalf("aggregate: %+v", agg)
	}
}

func TestInstallDeploysClickNFAndRules(t *testing.T) {
	d := newDomain(t)
	receipt, err := d.Install(context.Background(), request(t, "svc1", "firewall"))
	if err != nil {
		t.Fatal(err)
	}
	host := receipt.Placements["svc1-nf"]
	if host != "mn-s1" && host != "mn-s2" {
		t.Fatalf("placement: %v", receipt.Placements)
	}
	// The Click NF must be running in the emulated net.
	if got := d.Net().RunningNFs(); len(got) != 1 || got[0] != "svc1-nf" {
		t.Fatalf("running NFs: %v", got)
	}
	// Rules must be present in the switch flow tables (via OpenFlow).
	total := 0
	for _, swID := range d.Net().SwitchIDs() {
		sw, _ := d.Net().Switch(swID)
		total += sw.Table.Len()
	}
	if total == 0 {
		t.Fatal("no rules installed on switches")
	}
}

func TestEndToEndTrafficThroughClick(t *testing.T) {
	d := newDomain(t)
	if _, err := d.Install(context.Background(), request(t, "svc1", "firewall")); err != nil {
		t.Fatal(err)
	}
	sapA, err := d.Net().SAP("sapA")
	if err != nil {
		t.Fatal(err)
	}
	sapB, err := d.Net().SAP("sapB")
	if err != nil {
		t.Fatal(err)
	}
	sapA.Send("sapB", 500)
	d.Net().Eng.RunToIdle()
	got := sapB.Received()
	if len(got) != 1 {
		t.Fatalf("want 1 packet at sapB, got %d", len(got))
	}
	trace := strings.Join(got[0].Trace, ",")
	if !strings.Contains(trace, "click:firewall:svc1-nf") {
		t.Fatalf("packet must traverse the Click firewall: %s", trace)
	}
}

func TestClickFirewallDropsBlockedPayload(t *testing.T) {
	d := newDomain(t)
	if _, err := d.Install(context.Background(), request(t, "svc1", "firewall")); err != nil {
		t.Fatal(err)
	}
	sapA, _ := d.Net().SAP("sapA")
	sapB, _ := d.Net().SAP("sapB")
	// Benign traffic passes; "blocked" payloads die at the firewall.
	p1 := sapA.Send("sapB", 100)
	p1.Payload = []byte("hello")
	p2 := sapA.Send("sapB", 100)
	p2.Payload = []byte("this is blocked content")
	d.Net().Eng.RunToIdle()
	if len(sapB.Received()) != 1 {
		t.Fatalf("firewall should pass exactly one packet, got %d", len(sapB.Received()))
	}
	if p2.Dropped == "" || !strings.Contains(p2.Dropped, "payload match") {
		t.Fatalf("blocked packet should record drop reason: %q", p2.Dropped)
	}
}

func TestRemoveStopsNFAndCleansRules(t *testing.T) {
	d := newDomain(t)
	if _, err := d.Install(context.Background(), request(t, "svc1", "dpi")); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove(context.Background(), "svc1"); err != nil {
		t.Fatal(err)
	}
	if got := d.Net().RunningNFs(); len(got) != 0 {
		t.Fatalf("NFs should be stopped: %v", got)
	}
	for _, swID := range d.Net().SwitchIDs() {
		sw, _ := d.Net().Switch(swID)
		if sw.Table.Len() != 0 {
			t.Fatalf("switch %s still has rules", swID)
		}
	}
	// Traffic now dies (no rules).
	sapA, _ := d.Net().SAP("sapA")
	sapB, _ := d.Net().SAP("sapB")
	sapA.Send("sapB", 100)
	d.Net().Eng.RunToIdle()
	if len(sapB.Received()) != 0 {
		t.Fatal("no traffic should pass after removal")
	}
}

func TestStatsOverOpenFlow(t *testing.T) {
	d := newDomain(t)
	receipt, err := d.Install(context.Background(), request(t, "svc1", "firewall"))
	if err != nil {
		t.Fatal(err)
	}
	sapA, _ := d.Net().SAP("sapA")
	for i := 0; i < 5; i++ {
		sapA.Send("sapB", 200)
	}
	d.Net().Eng.RunToIdle()
	host := receipt.Placements["svc1-nf"]
	sr, err := d.Stats(context.Background(), host)
	if err != nil {
		t.Fatal(err)
	}
	var matched uint64
	for _, f := range sr.Flows {
		matched += f.Packets
	}
	if matched == 0 {
		t.Fatalf("flow stats should show traffic: %+v", sr.Flows)
	}
}

func TestBorderSAPHasNoHost(t *testing.T) {
	sub := substrate(t)
	d, err := New(Config{ID: "mn2", Substrate: sub, Borders: map[nffg.ID]bool{"sapB": true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if _, err := d.Net().SAP("sapB"); err == nil {
		t.Fatal("border SAP must not have a host")
	}
	at, err := d.Net().BorderPort("sapB")
	if err != nil {
		t.Fatal(err)
	}
	if at.Node != "mn-s2" || at.Port != 2 {
		t.Fatalf("border attachment: %+v", at)
	}
}

func TestMultipleServicesDistinctSAPs(t *testing.T) {
	// Substrate with four SAPs so two chains have disjoint ingress rules.
	sub := nffg.NewBuilder("mn-sub").
		BiSBiS("mn-s1", "mininet", 6, res(16, 8192), "firewall", "dpi", "nat").
		SAP("sapA").SAP("sapB").SAP("sapC").SAP("sapD").
		Link("u1", "sapA", "1", "mn-s1", "1", 100, 1).
		Link("u2", "sapB", "1", "mn-s1", "2", 100, 1).
		Link("u3", "sapC", "1", "mn-s1", "3", 100, 1).
		Link("u4", "sapD", "1", "mn-s1", "4", 100, 1).
		MustBuild()
	d, err := New(Config{ID: "mn3", Substrate: sub})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	r1 := nffg.NewBuilder("s1").
		SAP("sapA").SAP("sapB").
		NF("s1-nf", "firewall", 2, res(2, 512)).
		Chain("s1", 10, 0, "sapA", "s1-nf", "sapB").
		MustBuild()
	r2 := nffg.NewBuilder("s2").
		SAP("sapC").SAP("sapD").
		NF("s2-nf", "dpi", 2, res(2, 512)).
		Chain("s2", 10, 0, "sapC", "s2-nf", "sapD").
		MustBuild()
	if _, err := d.Install(context.Background(), r1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Install(context.Background(), r2); err != nil {
		t.Fatal(err)
	}
	// Both chains carry traffic independently.
	sapA, _ := d.Net().SAP("sapA")
	sapC, _ := d.Net().SAP("sapC")
	sapB, _ := d.Net().SAP("sapB")
	sapD, _ := d.Net().SAP("sapD")
	sapA.Send("sapB", 100)
	sapC.Send("sapD", 100)
	d.Net().Eng.RunToIdle()
	if len(sapB.Received()) != 1 || len(sapD.Received()) != 1 {
		t.Fatalf("deliveries: B=%d D=%d", len(sapB.Received()), len(sapD.Received()))
	}
	bTrace := strings.Join(sapB.Received()[0].Trace, ",")
	dTrace := strings.Join(sapD.Received()[0].Trace, ",")
	if !strings.Contains(bTrace, "click:firewall:s1-nf") || strings.Contains(bTrace, "s2-nf") {
		t.Fatalf("chain 1 trace wrong: %s", bTrace)
	}
	if !strings.Contains(dTrace, "click:dpi:s2-nf") || strings.Contains(dTrace, "s1-nf") {
		t.Fatalf("chain 2 trace wrong: %s", dTrace)
	}
}

// A delta's NF lifecycle — however many starts and stops — must coalesce
// into exactly one NETCONF RPC, with port allocations riding the reply.
func TestDeltaCoalescesNetconfRPCs(t *testing.T) {
	d := newDomain(t)
	// Two NFs in one chain: one delta, two starts.
	req, err := nffg.NewBuilder("svc2").
		SAP("sapA").SAP("sapB").
		NF("svc2-fw", "firewall", 2, res(1, 256)).
		NF("svc2-nat", "nat", 2, res(1, 256)).
		Chain("svc2", 10, 0, "sapA", "svc2-fw", "svc2-nat", "sapB").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Install(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := d.Net().RunningNFs(); len(got) != 2 {
		t.Fatalf("running NFs: %v", got)
	}
	st := d.SouthboundStats()
	if st.NetconfRPCs != 1 {
		t.Fatalf("install should cost one NETCONF RPC, recorded %d", st.NetconfRPCs)
	}
	// Removal (two stops) is again one RPC.
	if err := d.Remove(context.Background(), "svc2"); err != nil {
		t.Fatal(err)
	}
	if got := d.SouthboundStats().NetconfRPCs; got != 2 {
		t.Fatalf("remove should cost one more RPC, total %d", got)
	}
	if got := d.Net().RunningNFs(); len(got) != 0 {
		t.Fatalf("NFs should be stopped: %v", got)
	}
}

// The pooled encoder writes every type that crosses the NETCONF wire byte for
// byte as xml.Marshal does, also right after a failed encode on the same
// goroutine: an encoder that failed must never be reused.
func TestMarshalXMLMatchesEncodingXML(t *testing.T) {
	raw := netconf.RawBody{Inner: []byte(`<nf-delta><stops><id>old</id></stops></nf-delta>`)}
	wire := map[string]any{
		"hello":       &netconf.Hello{Capabilities: []string{netconf.BaseCapability, "urn:unify:virtualizer:1.0"}, SessionID: 9},
		"get-config":  &netconf.RPC{MessageID: "1", GetConfig: &netconf.GetConfig{Source: "running"}},
		"edit-config": &netconf.RPC{MessageID: "2", EditConfig: &netconf.EditConfig{Target: "running", Config: raw}},
		"action":      &netconf.RPC{MessageID: "3", Action: &netconf.Action{Name: "start-nf", Body: raw}},
		"close":       &netconf.RPC{MessageID: "4", Close: &struct{}{}},
		"reply ok":    &netconf.Reply{MessageID: "2", OK: &struct{}{}},
		"reply data":  &netconf.Reply{MessageID: "3", Data: &raw},
		"reply error": &netconf.Reply{MessageID: "5", Error: &netconf.RPCError{Type: "application", Tag: "operation-failed", Message: "a < b & \"c\""}},
		"nf-delta":    nfDelta{Stops: []string{"fw0"}, Starts: []startNFReq{{ID: "fw1", Host: "mn-s1", Type: "firewall", Ports: []string{"1", "2"}}}},
		"allocations": nfAllocations{NFs: []nfAllocation{{ID: "fw1", Ports: []portBinding{{ID: "1", SwitchPort: 5}, {ID: "2", SwitchPort: 6}}}}},
		"empty delta": nfDelta{},
	}
	unencodable := struct {
		XMLName xml.Name       `xml:"bad"`
		M       map[string]int `xml:"m"`
	}{M: map[string]int{"x": 1}}
	for name, v := range wire {
		for _, afterFailure := range []bool{false, true} {
			if afterFailure {
				if _, err := netconf.MarshalXML(unencodable); err == nil {
					t.Fatal("a map must not encode")
				}
			}
			got, err := netconf.MarshalXML(v)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := xml.Marshal(v)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s (after a failed encode: %v):\n got %s\nwant %s", name, afterFailure, got, want)
			}
		}
	}
}

// editFate is what proxyNetconf does with an edit-config.
type editFate int

const (
	forwardEdit editFate = iota // forward it and its reply
	dropEdit                    // drop it and the session
	loseReply                   // forward it; drop every reply from then on
)

// proxyNetconf points the domain's NETCONF session at a proxy to its server.
// The proxy calls hold with its end of the client's connection for each
// client chunk that carries an edit-config, and does with the chunk what
// hold returns.
func proxyNetconf(t *testing.T, d *Domain, hold func(cli net.Conn) editFate) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		cli, err := ln.Accept()
		if err != nil {
			return
		}
		defer cli.Close()
		srv, err := net.Dial("tcp", d.ncAddr)
		if err != nil {
			return
		}
		defer srv.Close()
		var mute atomic.Bool
		go func() {
			buf := make([]byte, 64<<10)
			for {
				n, err := srv.Read(buf)
				if err != nil {
					return
				}
				if !mute.Load() {
					if _, err := cli.Write(buf[:n]); err != nil {
						return
					}
				}
			}
		}()
		buf := make([]byte, 64<<10)
		for {
			n, err := cli.Read(buf)
			if err != nil {
				return
			}
			if bytes.Contains(buf[:n], []byte("edit-config")) {
				switch hold(cli) {
				case dropEdit:
					return
				case loseReply:
					mute.Store(true)
				}
			}
			if _, err := srv.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	cli, err := netconf.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	d.ncMu.Lock()
	_ = d.ncCli.Close()
	d.ncCli = cli
	d.ncMu.Unlock()
}

// checkNFsRecorded fails unless every NF running on the device has the port
// bindings the domain translates its rules with.
func checkNFsRecorded(t *testing.T, d *Domain) {
	t.Helper()
	for _, id := range d.Net().RunningNFs() {
		if _, err := d.lookupNFPorts(id); err != nil {
			t.Fatal(err)
		}
	}
}

// Canceling a commit while its edit-config is in flight does not interrupt
// the RPC: the reply's port allocations are recorded, the rule installs then
// fail on the canceled context, the undo's edit-config stops the NF on the
// same session, and the session stays usable for the next commit.
func TestCanceledCommitKeepsNetconfSession(t *testing.T) {
	d := newDomain(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	proxyNetconf(t, d, func(net.Conn) editFate {
		cancel()
		// Hold the request a moment, so that anything the cancellation
		// would set off has run before the reply can arrive.
		time.Sleep(20 * time.Millisecond)
		return forwardEdit
	})
	if _, err := d.Install(ctx, request(t, "svc1", "firewall")); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := d.SouthboundStats().NetconfRPCs; got != 2 {
		t.Fatalf("the canceled commit should have sent its edit-config and its undo, recorded %d RPCs", got)
	}
	if got := d.Net().RunningNFs(); len(got) != 0 {
		t.Fatalf("NFs running after the canceled commit: %v", got)
	}
	if _, err := d.Install(context.Background(), request(t, "svc2", "firewall")); err != nil {
		t.Fatalf("commit after a canceled one: %v", err)
	}
	checkNFsRecorded(t, d)
}

// An edit-config that outlives its commit's deadline fails the commit and
// closes its session; the leaf's undo, which stops the NF the edit-config
// would have started, and the next commit each dial a new one.
func TestTimedOutCommitRedialsNetconf(t *testing.T) {
	d := newDomain(t)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	// The edit-config never reaches the device: the proxy holds it until
	// the client, past its deadline, has closed the session.
	proxyNetconf(t, d, func(cli net.Conn) editFate {
		_, _ = io.Copy(io.Discard, cli)
		return dropEdit
	})
	if _, err := d.Install(ctx, request(t, "svc1", "firewall")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if got := d.SouthboundStats().NetconfRPCs; got != 2 {
		t.Fatalf("the timed-out commit should have sent its edit-config and its undo, recorded %d RPCs", got)
	}
	if got := d.Net().RunningNFs(); slices.Contains(got, "svc1-nf") {
		t.Fatalf("NF of the timed-out commit running: %v", got)
	}
	if _, err := d.Install(context.Background(), request(t, "svc2", "firewall")); err != nil {
		t.Fatalf("commit after a timed-out one: %v", err)
	}
	if got := d.Net().RunningNFs(); !slices.Contains(got, "svc2-nf") {
		t.Fatalf("running NFs: %v", got)
	}
}

// An edit-config the device applies but whose reply is lost fails its
// commit at the deadline with the NF running and no ports recorded for it;
// the leaf's undo stops that NF, so the same request installs again.
func TestLostEditConfigReplyIsUndone(t *testing.T) {
	d := newDomain(t)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	proxyNetconf(t, d, func(net.Conn) editFate { return loseReply })
	if _, err := d.Install(ctx, request(t, "svc1", "firewall")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if got := d.Net().RunningNFs(); len(got) != 0 {
		t.Fatalf("NFs running after the failed install: %v", got)
	}
	if _, err := d.Install(context.Background(), request(t, "svc1", "firewall")); err != nil {
		t.Fatalf("the same request after a lost reply: %v", err)
	}
	if got := d.Net().RunningNFs(); !slices.Contains(got, "svc1-nf") {
		t.Fatalf("running NFs: %v", got)
	}
	checkNFsRecorded(t, d)
}
