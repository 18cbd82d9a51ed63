//go:build !race

package core

// raceEnabled reports a -race build, whose sync.Pool drops a share of the
// buffers put back to it at random.
const raceEnabled = false
