package core

import "xrtree/internal/invariant"

// Debug-build (xrtreedebug) oracles for the XR-tree's structural
// invariants. Both hooks are gated on the invariant.Enabled constant and
// compile away in release builds.

// Beyond debugFullCheckBelow elements, only every debugCheckStride-th
// mutation runs the full checker — it walks the whole tree, so checking
// every operation would make the randomized soak tests quadratic.
const (
	debugFullCheckBelow = 512
	debugCheckStride    = 64
)

// debugPostMutation runs after a successful mutation with the write latch
// still held: on a sampled schedule it re-validates the entire tree —
// stab-chain ordering and disjointness, per-key (ps,pe) and head
// directories, strict PSL nesting, leaf-flag placement. It always returns
// nil; a violation panics through invariant.Assertf.
func (t *Tree) debugPostMutation() error {
	if !invariant.Enabled {
		return nil
	}
	t.debugOps++
	if t.count.Load() > debugFullCheckBelow && t.debugOps%debugCheckStride != 0 {
		return nil
	}
	err := t.checkInvariantsLocked()
	invariant.Assertf(err == nil, "post-mutation tree check: %v", err)
	return nil
}

// debugPinned moves the tree's held-pin count by d after a held-fetch
// helper's pool call returned err: a failed fetch pinned nothing, a
// failed release released nothing. A no-op in release builds.
func (t *Tree) debugPinned(err error, d int) {
	if invariant.Enabled && err == nil {
		t.debugHeld += d
	}
}

// debugPinBalance snapshots the tree's held-pin count at operation entry;
// the returned func asserts it is unchanged at exit. Registered after the
// latch defer, it runs while the tree is still write-latched. The count
// covers only pins this tree's held-fetch helpers took, and writers
// serialize on wlatch, so the balance belongs to this one operation —
// readers, and other trees sharing the pool, pin through the pool
// directly and cannot disturb it.
func (t *Tree) debugPinBalance() func() {
	if !invariant.Enabled {
		return func() {}
	}
	before := t.debugHeld
	return func() {
		invariant.Assertf(t.debugHeld == before,
			"pin balance: %d pins held at operation entry, %d at exit", before, t.debugHeld)
	}
}
