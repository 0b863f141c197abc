//go:build race

package obs

// raceEnabled: under the race detector allocation counts grow with the
// detector's own bookkeeping, so they are pinned in plain builds only.
const raceEnabled = true
