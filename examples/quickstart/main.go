// Quickstart: the smallest useful program — one infrastructure domain, one
// service chain, deployed through the service layer.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	escape "github.com/unify-repro/escape"
)

func main() {
	log.SetFlags(0)

	// 1. Describe the domain's resources: two BiS-BiS nodes between two
	// service access points. A BiS-BiS is a forwarding element fused with
	// compute capacity that can host NFs — the paper's joint abstraction.
	substrate := escape.NewBuilder("quickstart-sub").
		BiSBiS("node1", "quickstart", 4, escape.Resources{CPU: 8, Mem: 8192, Storage: 64},
			"firewall", "nat").
		BiSBiS("node2", "quickstart", 4, escape.Resources{CPU: 8, Mem: 8192, Storage: 64},
			"firewall", "dpi").
		SAP("customer").SAP("internet").
		Link("l1", "customer", "1", "node1", "1", 1000, 0.5).
		Link("l2", "node1", "2", "node2", "1", 1000, 0.5).
		Link("l3", "node2", "2", "internet", "1", 1000, 0.5).
		MustBuild()

	// 2. Run a local orchestrator over it. By default it exports a single
	// aggregated BiS-BiS view northbound (full delegation).
	dom, err := escape.NewLocalOrchestrator(escape.LocalConfig{
		ID:        "quickstart",
		Substrate: substrate,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Put the service layer on top and look at the view a user sees.
	svc := escape.NewServiceLayer(dom, nil)
	view, err := svc.View(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("virtualization view exposed to the user:")
	fmt.Print(view.Render())

	// 4. Define a service graph: customer -> firewall -> dpi -> internet,
	// 100 Mbit/s per hop, 10 ms end-to-end budget.
	request := escape.NewBuilder("web-protect").
		SAP("customer").SAP("internet").
		NF("fw", "firewall", 2, escape.Resources{CPU: 2, Mem: 1024, Storage: 4}).
		NF("ids", "dpi", 2, escape.Resources{CPU: 4, Mem: 2048, Storage: 8}).
		Chain("web-protect", 100, 0, "customer", "fw", "ids", "internet").
		MustBuild()

	// 5. Submit and inspect the outcome.
	receipt, err := svc.Submit(context.Background(), request)
	if err != nil {
		log.Fatalf("deploy failed: %v", err)
	}
	fmt.Printf("\nservice %q is deployed\n", receipt.ServiceID)
	fmt.Println("placements:")
	for nf, host := range receipt.Placements {
		fmt.Printf("  %-4s -> %s\n", nf, host)
	}
	fmt.Println("hop paths:")
	for hop, path := range receipt.HopPaths {
		fmt.Printf("  %-14s %v\n", hop, path)
	}

	// 6. The domain's internal state now carries the placements and the
	// flowrules realizing the chain.
	fmt.Println("\nconfigured substrate:")
	fmt.Print(dom.Internal().Render())

	// 7. Tear down.
	if err := svc.Remove(context.Background(), "web-protect"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nservice removed; domain back to", len(dom.Services()), "services")
}
