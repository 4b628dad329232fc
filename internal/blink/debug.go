package blink

import "xrtree/internal/invariant"

// debugPinned moves the tree's held-pin count by d after a held-page
// helper's pool call returned err: a failed fetch pinned nothing, a
// failed release released nothing. A no-op in release builds.
func (t *Tree) debugPinned(err error, d int) {
	if invariant.Enabled && err == nil {
		t.debugHeld += d
	}
}

// debugPinBalance snapshots the tree's held-pin count at operation entry;
// the returned func asserts it is unchanged at exit (xrtreedebug builds
// only — the hook compiles away otherwise). Registered after the latch
// defer, it runs while the tree is still write-latched. The count covers
// only pins this tree's held-page helpers took, and writers serialize on
// wlatch, so the balance belongs to this one operation — readers, and
// other trees sharing the pool, pin through the pool directly and cannot
// disturb it.
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
