package escape

import (
	"fmt"
	"strings"
	"testing"

	"github.com/unify-repro/escape/internal/decomp"
	"github.com/unify-repro/escape/internal/embed"
)

// TestPaperAcceptanceCurves pins the paper's two claims about mapping
// decisions, cell by cell, with the fill loop of the E2 and E4 benchmarks:
//
//   - E2: the backtracking mapper keeps the highest acceptance under load
//     (2-NF, 150 Mbit chains on a 12-node ring over 8 domains);
//   - E4: decomposition admits secure-gw chains that 10-CPU monoliths strand
//     on 16-CPU nodes (Sahhaf et al., cited in internal/decomp).
//
// Every cell gets a fresh mapper and substrate, so a cell does not depend on
// the loads before it. A change to what the mapper decides fails here until
// the tables are updated with it; run with -v to print them.
func TestPaperAcceptanceCurves(t *testing.T) {
	t.Run("E2", func(t *testing.T) {
		e2 := func(m func() *embed.Mapper) func(int) int {
			return func(load int) int { return fill(m(), syntheticDov(12, 8), load, e2Request).accepted }
		}
		loads := []int{8, 16, 24, 32, 40, 48}
		got := acceptanceCurves(t, loads, []curve{
			{"greedy-bt", e2(embed.NewDefault), []int{8, 16, 16, 16, 16, 17}},
			{"first-fit", e2(embed.NewFirstFit), []int{8, 11, 11, 11, 11, 11}},
			{"random-fit(7)", e2(func() *embed.Mapper { return embed.NewRandom(7) }), []int{8, 13, 15, 15, 15, 15}},
		})
		for c, load := range loads {
			greedy, firstFit, randomFit := got[0][c], got[1][c], got[2][c]
			if load == 8 && (greedy != load || firstFit != load || randomFit != load) {
				t.Errorf("load 8: accepted %d, %d, %d; want every request by every mapper", greedy, firstFit, randomFit)
			}
			if load >= 16 && (greedy <= firstFit || greedy <= randomFit) {
				t.Errorf("load %d: greedy-bt accepted %d, not more than first-fit's %d and random-fit's %d", load, greedy, firstFit, randomFit)
			}
		}
	})

	t.Run("E4", func(t *testing.T) {
		e4 := func(rules *decomp.Rules) func(int) int {
			return func(load int) int {
				alg := embed.New(embed.Options{MaxBacktrack: 64, Decomp: rules})
				return fill(alg, e4Substrate(), load, e4Request).accepted
			}
		}
		loads := []int{4, 8, 12, 16, 20}
		got := acceptanceCurves(t, loads, []curve{
			{"monolithic", e4(nil), []int{4, 8, 8, 8, 8}},
			{"decomposed", e4(secureGWRules()), []int{4, 8, 12, 12, 12}},
		})
		for c, load := range loads {
			mono, dec := got[0][c], got[1][c]
			if load <= 8 && dec != mono {
				t.Errorf("load %d: decomposed accepted %d, monolithic %d; want equal", load, dec, mono)
			}
			if load >= 12 && dec <= mono {
				t.Errorf("load %d: decomposed accepted %d, not more than monolithic's %d", load, dec, mono)
			}
		}
	})
}

// curve is one acceptance curve: the requests accepted at a load, and the
// counts pinned for each load of the sweep.
type curve struct {
	name     string
	accepted func(load int) int
	want     []int
}

// acceptanceCurves measures every curve at every load, logs the table, fails
// t for each cell that differs from its pinned count, and returns the counts
// indexed [curve][load].
func acceptanceCurves(t *testing.T, loads []int, curves []curve) [][]int {
	t.Helper()
	got := make([][]int, len(curves))
	var table strings.Builder
	fmt.Fprintf(&table, "\n%-6s", "load")
	for _, cv := range curves {
		fmt.Fprintf(&table, " %16s", cv.name)
	}
	for c, load := range loads {
		fmt.Fprintf(&table, "\n%-6d", load)
		for i, cv := range curves {
			n := cv.accepted(load)
			got[i] = append(got[i], n)
			fmt.Fprintf(&table, " %16s", fmt.Sprintf("%d/%d (%.0f%%)", n, load, 100*float64(n)/float64(load)))
			if n != cv.want[c] {
				t.Errorf("%s at load %d accepted %d, want %d", cv.name, load, n, cv.want[c])
			}
		}
	}
	t.Log(table.String())
	return got
}
