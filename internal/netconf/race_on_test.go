//go:build race

package netconf

// raceEnabled: under the race detector sync.Pool drops a share of what it is
// given, so pooled encoders are rebuilt and allocation counts mean nothing.
const raceEnabled = true
