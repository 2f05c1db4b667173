//go:build race

package pointloc

// raceEnabled reports a -race build, whose sync.Pool drops a share of the
// entries put into it, so allocation counts are not steady.
const raceEnabled = true
