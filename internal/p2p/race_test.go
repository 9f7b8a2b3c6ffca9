//go:build race

package p2p

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own account, so allocation gates skip.
const raceEnabled = true
