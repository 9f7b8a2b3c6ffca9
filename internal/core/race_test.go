//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool drops Puts at random
// on purpose, so temporaries a pool would recycle reach the heap instead.
const raceEnabled = true
