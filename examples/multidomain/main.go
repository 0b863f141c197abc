// Multidomain: the paper's Figure 1 scenario — a service chain spanning four
// technology domains (Mininet+Click, legacy SDN, OpenStack, Universal Node),
// deployed through the unified control plane and verified with real
// (simulated) packets crossing every domain.
//
//	go run ./examples/multidomain
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	escape "github.com/unify-repro/escape"
)

func main() {
	log.SetFlags(0)
	sys, err := escape.NewFig1System(escape.Fig1Options{SwitchesPerNetDomain: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	fmt.Println("domains under the multi-domain orchestrator:", sys.MdO.Children())
	view, err := sys.MdO.View(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nunified view (networks + clouds as one BiS-BiS):")
	fmt.Print(view.Render())

	// The canonical chain: firewall as a Click process in the Mininet
	// domain, DPI as an OpenStack VM, compression as a container on the UN.
	chain, err := sys.DemoChain("e2e", 50)
	if err != nil {
		log.Fatal(err)
	}
	receipt, err := sys.Service.Submit(context.Background(), chain)
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	fmt.Println("\ndeployed; per-domain sub-services:")
	for child, r := range receipt.Children {
		fmt.Printf("  %-10s -> %s\n", child, r.ServiceID)
	}

	// Send traffic end to end and show where it went.
	sap1, err := sys.SAP1()
	if err != nil {
		log.Fatal(err)
	}
	sap2, err := sys.SAP2()
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p := sap1.Send("sap2", 1200)
		p.Payload = []byte("user data")
	}
	sys.Engine.RunToIdle()
	delivered := sap2.Received()
	fmt.Printf("\ndelivered %d/10 packets; first packet's journey:\n", len(delivered))
	if len(delivered) > 0 {
		for _, hop := range delivered[0].Trace {
			marker := "  "
			if strings.HasPrefix(hop, "click:") || strings.HasPrefix(hop, "vm:") || strings.HasPrefix(hop, "docker:") {
				marker = "=>"
			}
			fmt.Printf("  %s %s\n", marker, hop)
		}
		fmt.Printf("size after compression: %d bytes (sent 1200)\n", delivered[0].Size)
	}
	lats := sap2.Latencies()
	if len(lats) > 0 {
		fmt.Printf("end-to-end latency of the first packet: %.2f ms (virtual time)\n", lats[0])
	}
}
