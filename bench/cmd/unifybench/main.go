// Command unifybench runs the benchmark of BENCHMARK.json.
//
//	unifybench -workload all -seed 1 -out bench.json -trace-out spans.jsonl
//	    Every workload, undecorated (end-to-end metrics) then traced
//	    (per-layer metrics); the set is appended to bench.json.
//	unifybench -workload local_chain -seed 7 -seconds 15 -trace 0
//	    One run; the last line of standard output is one JSON object with the
//	    keys correct, attempted, failed and metrics (-trace 0: the end-to-end
//	    metrics, -trace 1: the per-layer ones).
//	unifybench -workload durable_burst -rates 60,120,240
//	    The open loop at each rate, for capacity exploration by hand.
//	unifybench -compare base.json new.json
//	    Medians side by side with a verdict against each metric's bound.
//
// It exits 0 only if every run was correct (and, comparing, nothing is worse).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/unify-repro/escape/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("unifybench: ")
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "fixes the domain visiting order, the chain and tenant mix and the NF types")
		seconds  = flag.Int("seconds", 24, "measured window of a run, in seconds")
		trace    = flag.String("trace", "both", "0: undecorated run, end-to-end metrics; 1: traced run, per-layer metrics; both")
		out      = flag.String("out", "", "append the set of results to this JSON report")
		traceOut = flag.String("trace-out", "", "write the traced runs' spans to this file, one JSON object {workload, spans} per line")
		rates    = flag.String("rates", "", "durable_burst only: comma-separated installs/s to step through")
		dataRoot = flag.String("data-root", "", "directory for durable_burst's journal (default /dev/shm, else the temp dir)")
		compare  = flag.Bool("compare", false, "compare two reports: -compare base.json new.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare needs two report files")
		}
		a, err := bench.LoadReport(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		b, err := bench.LoadReport(flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if bench.Compare(os.Stdout, a, b) > 0 {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		log.Fatalf("unexpected arguments %q", flag.Args())
	}

	workloads := bench.Workloads
	if *workload != "all" {
		w, ok := bench.WorkloadByName(*workload)
		if !ok {
			log.Fatalf("unknown workload %q", *workload)
		}
		workloads = []bench.Workload{w}
	}
	var traced []bool
	switch *trace {
	case "0":
		traced = []bool{false}
	case "1":
		traced = []bool{true}
	case "both":
		traced = []bool{false, true}
	default:
		log.Fatalf("-trace %q: want 0, 1 or both", *trace)
	}
	ladder := []float64{0}
	if *rates != "" {
		if *workload != "durable_burst" {
			log.Fatal("-rates applies to -workload durable_burst")
		}
		ladder = nil
		for _, f := range strings.Split(*rates, ",") {
			r, err := strconv.ParseFloat(f, 64)
			if err != nil || r <= 0 {
				log.Fatalf("-rates %q: want positive numbers", *rates)
			}
			ladder = append(ladder, r)
		}
	}

	var spanFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		spanFile = f
	}
	set := bench.Set{Seed: *seed, WindowS: float64(*seconds), When: time.Now().UTC()}
	for _, w := range workloads {
		for _, rate := range ladder {
			for _, tr := range traced {
				if rate != 0 {
					fmt.Printf("rate %.0f installs/s\n", rate)
				}
				res, err := bench.Run(bench.Options{
					Workload: w, Seed: *seed, Window: time.Duration(*seconds) * time.Second,
					Traced: tr, Rate: rate, DataRoot: *dataRoot,
				})
				if err != nil {
					log.Fatalf("%s: %v", w.Name, err)
				}
				res.Print(os.Stdout)
				set.Results = append(set.Results, res)
				// Spans go out at once and are dropped: kept until the end they
				// would be live heap in the runs that follow.
				if spanFile != nil && tr {
					line := struct {
						Workload string       `json:"workload"`
						Spans    []bench.Span `json:"spans"`
					}{w.Name, res.Spans}
					if err := json.NewEncoder(spanFile).Encode(line); err != nil {
						log.Fatal(err)
					}
				}
				res.Spans = nil
			}
		}
	}
	if *out != "" {
		if err := bench.AppendSet(*out, set); err != nil {
			log.Fatal(err)
		}
	}
	// The last line: the one result of a single run in the harness's shape —
	// exactly BENCHMARK.json's end_to_end metrics of an undecorated run, its
	// per_layer ones of a traced run — all results folded together otherwise,
	// under "workload[@rate]/metric".
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, res := range set.Results {
		last.Correct = last.Correct && res.Correct
		last.Attempted += res.Attempted
		last.Failed += res.Failed
		defs, prefix := bench.PerLayer(), res.Workload
		if !res.Traced {
			defs = bench.Harness()
		}
		if res.Rate != 0 {
			prefix = fmt.Sprintf("%s@%g", prefix, res.Rate)
		}
		for _, d := range defs {
			name, m := d.Name, res.Metrics[d.Name]
			if len(set.Results) > 1 {
				name = prefix + "/" + name
			}
			last.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
	if !last.Correct {
		os.Exit(1)
	}
}
