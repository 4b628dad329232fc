//go:build !xrtreedebug

package core

// debugPostMutation is the xrtreedebug sampled invariant check (debug.go);
// release builds do not run it.
func (t *Tree) debugPostMutation() {}
