//go:build race

package server

// raceEnabled reports a -race build, whose sync.Pool drops a share of the
// values put back on purpose, so pooled-allocation bounds do not hold.
const raceEnabled = true
