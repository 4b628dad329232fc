//go:build race

package invariant

// Race reports whether the race detector is compiled in. Its
// instrumentation defeats escape analysis in places, so allocation pins
// skip under it.
const Race = true
