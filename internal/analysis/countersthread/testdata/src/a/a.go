// Package a exercises the countersthread analyzer with a local Counters
// stand-in: value copies and nil-drops are flagged, snapshots by return
// and annotated drops are not.
package a

import "context"

type Counters struct {
	ElementsScanned int64
	Ctx             context.Context
}

// countedLayer stands in for an instrumented storage-layer entry point.
func countedLayer(n int, c *Counters) {}

func variadicSink(vals ...interface{}) {}

// ---- negative cases ----

func goodPtrParam(c *Counters) {
	c.ElementsScanned++
}

// goodSnapshotReturn returns a value copy deliberately — the snapshot
// idiom (Pool.Stats) is allowed.
func goodSnapshotReturn(c *Counters) Counters {
	return *c
}

func goodThreaded(c *Counters) {
	countedLayer(1, c)
}

// goodNilWithoutCounters has no counters to give, so nil is fine.
func goodNilWithoutCounters(n int) {
	countedLayer(n, nil)
}

func goodAnnotatedDrop(c *Counters) {
	//xrvet:nocounters totals are reported by the caller
	countedLayer(1, nil)
}

func goodVariadicNil(c *Counters) {
	variadicSink(nil)
}

// ---- positive cases ----

func badValueParam(c Counters) { // want `Counters passed by value: increments accumulate into a copy; pass \*Counters`
	c.ElementsScanned++
}

func badDerefCopy(c *Counters) int64 {
	local := *c // want `Counters deref-copied: increments into the copy are lost; keep the pointer`
	local.ElementsScanned++
	return local.ElementsScanned
}

func badDerefCopyVar(c *Counters) int64 {
	var local Counters = *c // want `Counters deref-copied: increments into the copy are lost; keep the pointer`
	return local.ElementsScanned
}

func badNilDrop(c *Counters) {
	countedLayer(1, nil) // want `nil Counters passed to a counted layer while the caller has a \*Counters`
}

func badBareAnnotatedDrop(c *Counters) {
	//xrvet:nocounters
	countedLayer(1, nil) // want `bare //xrvet:nocounters escape: add a justification`
}

func badLitParam() func(Counters) {
	return func(c Counters) { // want `Counters passed by value: increments accumulate into a copy; pass \*Counters`
		c.ElementsScanned++
	}
}
