//go:build xrtreedebug

package core

import "xrtree/internal/invariant"

// The debug-build (xrtreedebug) oracle for the XR-tree's structural
// invariants; release builds get the no-op in nodebug.go.

// Beyond debugFullCheckBelow elements, only every debugCheckStride-th
// mutation runs the full checker — it walks the whole tree, so checking
// every operation would make the randomized soak tests quadratic.
const (
	debugFullCheckBelow = 512
	debugCheckStride    = 64
)

// debugPostMutation runs after a successful mutation with the writer latch
// still held: on a sampled schedule it re-validates the entire tree —
// stab-chain ordering and disjointness, per-key (ps,pe) and head
// directories, strict PSL nesting, leaf-flag placement. A violation panics
// through invariant.Assertf. The walk's page reads are unseen
// (blink.Writer.CheckUnseen), so a debug build counts, evicts and traces
// exactly what a release build does.
func (t *Tree) debugPostMutation() {
	t.debugOps++
	if t.Len() > debugFullCheckBelow && t.debugOps%debugCheckStride != 0 {
		return
	}
	err := t.w.CheckUnseen()
	invariant.Assertf(err == nil, "post-mutation tree check: %v", err)
}
