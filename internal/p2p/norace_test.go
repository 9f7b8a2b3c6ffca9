//go:build !race

package p2p

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
