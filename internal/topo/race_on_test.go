//go:build race

package topo

// raceEnabled: under the race detector sync.Pool drops a share of what it is
// given, so pooled workspaces are rebuilt and allocation counts mean nothing.
const raceEnabled = true
