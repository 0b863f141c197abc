// Command experiments runs the scale scenario behind CI's SLO artifact; see
// scenario.go for what it builds and measures. The paper's mapping
// experiments live in the root package: TestPaperAcceptanceCurves checks the
// acceptance curves of E2 and E4, and the E1–E4 benchmarks time them.
//
//	go run ./cmd/experiments -domains 100 -saps 10 -services 400 -flaps 2
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
)

func main() {
	log.SetFlags(0)
	domains := flag.Int("domains", 100, "number of technology domains")
	saps := flag.Int("saps", 10, "SAPs per domain")
	services := flag.Int("services", 400, "service requests submitted")
	churn := flag.Float64("churn", 0.5, "fraction of deployed services removed again")
	mice := flag.Float64("mice", 0.5, "fraction of requests from mice tenants")
	clients := flag.Int("clients", 64, "concurrent submitting clients")
	flaps := flag.Int("flaps", 0, "domains killed under load in the flap phase (0 = no flap phase)")
	flapSvcs := flag.Int("flap-services", 4, "services pinned on each flap victim")
	out := flag.String("out", "BENCH_SCENARIO_SLO.json", "SLO artifact path (empty = stdout only)")
	flag.Parse()
	scenario(ScenarioConfig{
		Domains:   *domains,
		SAPs:      *saps,
		Services:  *services,
		Churn:     *churn,
		MiceShare: *mice,
		Clients:   *clients,
		Flaps:     *flaps,
		FlapSvcs:  *flapSvcs,
	}, *out)
}

func header(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("-", 72))
	fmt.Println(title)
	fmt.Println(strings.Repeat("-", 72))
}
