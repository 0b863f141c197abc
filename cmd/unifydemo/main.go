// Command unifydemo reproduces the paper's demonstration in one process:
// it brings up the Figure 1 stack (Mininet+Click, legacy SDN under a
// POX-style controller, OpenStack+ODL, Universal Node — joined by a
// multi-domain orchestrator and a service layer) and walks through the three
// showcased capabilities:
//
//	(i)   joint domain abstraction for networks and clouds,
//	(ii)  orchestration and deployment of service chains over the unified
//	      resources (with live traffic verification),
//	(iii) recursive orchestration and NF decomposition.
//
// Run it with no arguments; it prints a narrated transcript.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	escape "github.com/unify-repro/escape"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/decomp"
	"github.com/unify-repro/escape/internal/monitor"
	"github.com/unify-repro/escape/internal/nffg"
)

func main() {
	log.SetFlags(0)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		log.Fatalf("unifydemo: %v", err)
	}
}

func section(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", 72))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 72))
}

func run(ctx context.Context) error {
	// Decomposition rule used in part (iii-b): "vpn" has no native
	// implementation anywhere; it decomposes into encrypt + compress.
	rules := decomp.NewRules()
	if err := rules.Add("vpn", decomp.Decomposition{
		Name: "enc-comp",
		Components: []decomp.Component{
			{Suffix: "enc", FunctionalType: "encrypt", Ports: 2, Demand: escape.Resources{CPU: 2, Mem: 1024, Storage: 2}},
			{Suffix: "cmp", FunctionalType: "compress", Ports: 2, Demand: escape.Resources{CPU: 2, Mem: 1024, Storage: 2}},
		},
		Internal: []decomp.InternalLink{{SrcComp: "enc", SrcPort: "2", DstComp: "cmp", DstPort: "1", Bandwidth: 10}},
		PortMaps: []decomp.PortMap{{Outer: "1", Comp: "enc", Inner: "1"}, {Outer: "2", Comp: "cmp", Inner: "2"}},
		Cost:     1,
	}); err != nil {
		return err
	}

	section("Bring-up: four technology domains under one SFC control plane")
	sys, err := escape.NewFig1System(escape.Fig1Options{DecompRules: rules})
	if err != nil {
		return err
	}
	defer sys.Close()
	fmt.Println("domains attached to the multi-domain orchestrator:", sys.MdO.Children())

	// ---------------------------------------------------------------- (i)
	section("(i) Joint domain abstraction for networks and clouds")
	dov, err := sys.MdO.DoV()
	if err != nil {
		return err
	}
	fmt.Println("domain-of-views (DoV) — each domain exports one BiS-BiS:")
	fmt.Print(dov.Render())
	view, err := sys.MdO.View(ctx)
	if err != nil {
		return err
	}
	fmt.Println("northbound view of the MdO (single BiS-BiS, full delegation):")
	fmt.Print(view.Render())

	// --------------------------------------------------------------- (ii)
	section("(ii) Service chain deployment over unified resources")
	chain, err := sys.DemoChain("demo", 50)
	if err != nil {
		return err
	}
	fmt.Println("service request: sap1 -> firewall(Click) -> dpi(VM) -> compress(container) -> sap2")
	receipt, err := sys.Service.Submit(ctx, chain)
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	fmt.Println("deployed; placements (MdO view):")
	for nf, host := range receipt.Placements {
		fmt.Printf("  %-12s -> %s\n", nf, host)
	}
	fmt.Println("leaf placements (per-domain receipts):")
	for child, cr := range receipt.Children {
		for nf, host := range cr.Placements {
			fmt.Printf("  %-10s %-12s -> %s\n", child, nf, host)
		}
	}

	sap1, err := sys.SAP1()
	if err != nil {
		return err
	}
	sap2, err := sys.SAP2()
	if err != nil {
		return err
	}
	fmt.Println("\ninjecting 20 packets sap1 -> sap2 (two of them carry attack payloads)...")
	for i := 0; i < 20; i++ {
		p := sap1.Send("sap2", 1000)
		if i%10 == 3 {
			p.Payload = []byte("attack payload")
		} else {
			p.Payload = []byte("legit traffic")
		}
	}
	sys.Engine.RunToIdle()
	got := sap2.Received()
	fmt.Printf("delivered at sap2: %d/20 (DPI dropped the attacks)\n", len(got))
	if len(got) > 0 {
		fmt.Println("trace of the first delivered packet:")
		for _, hop := range got[0].Trace {
			fmt.Println("   ", hop)
		}
	}
	snap := monitor.CollectAll(
		monitor.NetSource{Domain: "mininet", Net: sys.Mininet.Net()},
		monitor.NetSource{Domain: "sdn", Net: sys.SDN.Net()},
		monitor.NetSource{Domain: "openstack", Net: sys.OpenStack.Cloud().Net()},
		monitor.NetSource{Domain: "un", Net: sys.UN.Net()},
	)
	fmt.Println("\naggregated counters across all four domains:")
	snap.Render(os.Stdout)

	fmt.Println("\ntearing the demo chain down (sap1->sap2 is free again)...")
	if err := sys.Service.Remove(ctx, "demo"); err != nil {
		return err
	}

	// -------------------------------------------------------------- (iii)
	section("(iii-a) Recursive orchestration: a parent layer on top of the MdO")
	top := core.NewResourceOrchestrator(core.Config{ID: "top", Virtualizer: core.SingleBiSBiS{NodeID: "bisbis@top"}})
	if err := top.Attach(context.Background(), sys.MdO); err != nil {
		return err
	}
	topView, err := top.View(ctx)
	if err != nil {
		return err
	}
	fmt.Println("view at the added top layer:")
	fmt.Print(topView.Render())
	recReq := escape.NewBuilder("rec").
		SAP("sap1").SAP("sap2").
		NF("rec-nat", "nat", 2, escape.Resources{CPU: 2, Mem: 1024, Storage: 2}).
		Chain("rec", 10, 0, "sap1", "rec-nat", "sap2").
		MustBuild()
	recReceipt, err := top.Install(ctx, recReq)
	if err != nil {
		return err
	}
	fmt.Println("request installed through the extra layer; receipt chain:")
	printReceiptTree(recReceipt, "  ")
	if err := top.Remove(ctx, "rec"); err != nil {
		return err
	}
	fmt.Println("removed through the same recursive path")

	// NF decomposition.
	section("(iii-b) NF decomposition during mapping")
	vpnReq := escape.NewBuilder("vpnsvc").
		SAP("sap1").SAP("sap2").
		NF("vpn1", "vpn", 2, escape.Resources{CPU: 4, Mem: 2048, Storage: 4}).
		Chain("vpnsvc", 10, 0, "sap1", "vpn1", "sap2").
		MustBuild()
	fmt.Println("request: sap1 -> vpn -> sap2 (no domain supports 'vpn' natively)")
	vpnReceipt, err := sys.Service.Submit(ctx, vpnReq)
	if err != nil {
		return fmt.Errorf("vpn submit: %w", err)
	}
	fmt.Println("decompositions applied:", vpnReceipt.Decompositions)
	fmt.Println("component placements:")
	for nf, host := range vpnReceipt.Placements {
		fmt.Printf("  %-12s -> %s\n", nf, host)
	}
	sap1.Send("sap2", 800)
	sys.Engine.RunToIdle()
	all := sap2.Received()
	last := all[len(all)-1]
	fmt.Println("trace through the decomposed VPN:")
	for _, hop := range last.Trace {
		fmt.Println("   ", hop)
	}

	section("Demo complete")
	fmt.Println("services still deployed:", sys.MdO.Services())
	return nil
}

func printReceiptTree(r *escape.Receipt, indent string) {
	fmt.Printf("%s%s", indent, r.ServiceID)
	if len(r.Placements) > 0 {
		fmt.Printf("  placements=%d", len(r.Placements))
	}
	fmt.Println()
	for _, childID := range sortedKeys(r.Children) {
		printReceiptTree(r.Children[childID], indent+"    ")
	}
}

func sortedKeys(m map[string]*escape.Receipt) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

var _ = nffg.New // keep the model package linked for doc navigation
