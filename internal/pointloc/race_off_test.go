//go:build !race

package pointloc

const raceEnabled = false
