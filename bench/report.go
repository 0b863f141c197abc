package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"text/tabwriter"
	"time"
)

// Set is one complete pass over the selected workloads with one seed.
type Set struct {
	Seed    int64     `json:"seed"`
	WindowS float64   `json:"window_s"`
	When    time.Time `json:"when"`
	Results []*Result `json:"results"`
}

// Report is the file -out writes: every set ever appended to it, so a
// trajectory of several runs lives in one file.
type Report struct {
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	Sets      []Set  `json:"sets"`
}

// LoadReport reads a report file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// AppendSet adds a set to the report at path, creating the file if needed.
func AppendSet(path string, set Set) error {
	r, err := LoadReport(path)
	if errors.Is(err, fs.ErrNotExist) {
		r, err = &Report{}, nil
	}
	if err != nil {
		return err
	}
	r.GoVersion, r.NumCPU = runtime.Version(), runtime.NumCPU()
	r.Sets = append(r.Sets, set)
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Print writes a result's metrics as a table, every one by name and unit.
func (r *Result) Print(w io.Writer) {
	kind := "end to end, undecorated"
	if r.Traced {
		kind = "per layer, traced"
	}
	fmt.Fprintf(w, "%s seed %d (%s, %.0f s window): correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, kind, r.WindowS, r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	if r.DataDir != "" {
		fmt.Fprintf(w, "  journal directory: %s\n", r.DataDir)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	defs := EndToEnd
	if r.Traced {
		defs = append(defs[:len(defs):len(defs)], Layers...)
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(tw, "  %s\t%.4f\t%s\t%s\n", d.Name, m.Value, m.Unit, n)
	}
	tw.Flush()
}

// values gathers every value the undecorated runs of a report gave for one
// metric of one workload. The steps of a rate ladder are not among them.
func (r *Report) values(workload, metric string) (out []float64) {
	for _, set := range r.Sets {
		for _, res := range set.Results {
			if m, ok := res.Metrics[metric]; ok && !res.Traced && res.Rate == 0 && res.Workload == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// minRuns is how many runs a side needs before its median and the distance
// between its quartiles say anything: with fewer, Compare leaves the metric
// unresolved.
const minRuns = 4

// Compare prints, per workload and end-to-end metric of the undecorated runs,
// the medians of reports a (the base) and b, their ratio b/a, and a verdict
// against the metric's bound: "worse" when b's median is worse than a's by more
// than the bound; "unresolved" when the comparison cannot tell, because a side
// has fewer than minRuns runs or its own run-to-run spread (the distance
// between its quartiles) is wider than the bound; else "ok". It returns how
// many were worse.
func Compare(w io.Writer, a, b *Report) (worse int) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tnew/base\tbound\tverdict")
	for _, wl := range Workloads {
		for _, d := range EndToEnd {
			va, vb := a.values(wl.Name, d.Name), b.values(wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 || d.Only != "" && d.Only != wl.Name {
				continue
			}
			ma, mb := quantile(va, 0.5), quantile(vb, 0.5)
			// change and the two spreads are in the bound's terms: shares of
			// the base median, or differences. Positive change: b is worse.
			spread := func(v []float64) float64 { return quantile(v, 0.75) - quantile(v, 0.25) }
			change, sa, sb, bound := mb-ma, spread(va), spread(vb), fmt.Sprintf("%g abs", d.Bound)
			if !d.Abs {
				change, sa, sb, bound = ratio(change, ma), ratio(sa, ma), ratio(sb, mb), fmt.Sprintf("%g%%", 100*d.Bound)
			}
			if d.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case len(va) < minRuns || len(vb) < minRuns || sa > d.Bound || sb > d.Bound:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s (n=%d)\t%.4f %s (n=%d)\t%.3f\t%s\t%s\n",
				wl.Name, d.Name, ma, d.Unit, len(va), mb, d.Unit, len(vb), ratio(mb, ma), bound, verdict)
		}
	}
	tw.Flush()
	return worse
}
