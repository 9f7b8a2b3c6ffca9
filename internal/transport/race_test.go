//go:build race

package transport

// raceEnabled reports a -race build, where sync.Pool drops Puts at random
// on purpose, so a pooled link batch reaches the heap instead.
const raceEnabled = true
