//go:build !race

package openflow

const raceEnabled = false
