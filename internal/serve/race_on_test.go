//go:build race

package serve

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation counts are checked without it.
const raceEnabled = true
