//go:build !race

package netconf

const raceEnabled = false
