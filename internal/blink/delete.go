package blink

import (
	"fmt"

	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// Delete removes the element whose region starts at start, or returns the
// owner's ErrNotFound. It runs under the writer latch in one WAL
// transaction; the XR-tree first resolves the full region (Hooks.Region),
// which its stab steps need.
//
// The descent rebalances underfull pages on the way back up and shrinks
// the tree while the root is a keyless internal node. Removals are one
// latched write on their page. A rebalance latches the parent and both
// siblings top-to-bottom, left-to-right (the B-link order) and does all of
// its work, separator and stab re-homing included, inside that bracket, so
// readers see the pair before or after it. A merged right page is
// discarded only after its latch drops; a reader that already resolved its
// id finds the recycled page by its type byte and reports the owner's
// ErrCorrupt rather than wrong data.
func (t *Tree) Delete(start uint32) (err error) {
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	defer t.done(&err)
	defer t.debugPinBalance()()
	e := xmldoc.Element{Start: start}
	if t.hooks != nil {
		if e, err = t.hooks.Region(start); err != nil {
			return err
		}
	}
	commit := t.beginTx()
	defer commit(&err)
	defer t.settle()
	found := false
	root, h := t.Root()
	if _, err := t.deleteFrom(root, h, e, &found); err != nil {
		return err
	}
	if err := t.shrinkRoot(); err != nil {
		return err
	}
	t.count.Add(-1)
	return t.syncMeta()
}

// shrinkRoot drops keyless internal roots, publishing the only child as
// the new root each time (D4).
func (t *Tree) shrinkRoot() error {
	root, h := t.Root()
	for h > 1 {
		d, err := t.fetch(root)
		if err != nil {
			return err
		}
		if t.shape.Count(d) > 0 {
			return t.unpin(root, false)
		}
		only := t.shape.Child(d, 0)
		if t.hooks != nil {
			if err := t.hooks.ShrinkRoot(d); err != nil {
				t.unpin(root, false)
				return err
			}
		}
		if err := t.unpin(root, false); err != nil {
			return err
		}
		old := root
		root, h = only, h-1
		t.SetRoot(root, h)
		if err := t.free(old); err != nil {
			return err
		}
	}
	return nil
}

// deleteFrom removes e from the subtree under page id at the given height
// (1 = leaf) and reports whether that page is left underfull. found tracks
// whether D1 already removed e from a stab list higher up.
func (t *Tree) deleteFrom(id pagefile.PageID, height int, e xmldoc.Element, found *bool) (bool, error) {
	d, err := t.fetch(id)
	if err != nil {
		return false, err
	}
	if height == 1 {
		n := LeafCount(d)
		pos := LeafSearch(d, e.Start)
		if pos >= n || LeafKey(d, pos) != e.Start {
			t.unpin(id, false)
			return false, fmt.Errorf("%w: start %d", t.notFound, e.Start)
		}
		t.pl.Lock(id)
		RemoveLeafEntry(d, pos, n)
		t.pl.Unlock(id)
		return n-1 < t.leafCap/2, t.unpin(id, true)
	}
	// The trees differ here, and their page files depend on it: the
	// XR-tree writes back every node on the path (D1 may edit its stab
	// chain) and reports any node below its minimum; the B+-tree writes
	// back and reports only a node its rebalance changed.
	xr := t.hooks != nil
	dirty := xr
	// D1: drop e from this node's stab list if it lives here.
	if xr && !*found {
		t.pl.Lock(id)
		*found, err = t.hooks.Unhome(d, e)
		t.pl.Unlock(id)
		if err != nil {
			t.unpin(id, true)
			return false, err
		}
	}
	ci := t.shape.Search(d, e.Start)
	under, err := t.deleteFrom(t.shape.Child(d, ci), height-1, e, found)
	if err == nil && under {
		dirty = true
		err = t.rebalance(id, d, ci, height-1)
	}
	if err != nil {
		t.unpin(id, dirty)
		return false, err
	}
	under = (xr || under) && t.shape.Count(d) < t.intCap/2
	return under, t.unpin(id, dirty)
}

// rebalance restores the minimum occupancy of child ci of the pinned
// internal node parent (page pid), whose children sit at childHeight,
// pairing it with its left sibling — or its right one when ci is
// leftmost.
func (t *Tree) rebalance(pid pagefile.PageID, parent []byte, ci, childHeight int) error {
	s := t.shape
	li := ci - 1
	if ci == 0 {
		if s.Count(parent) == 0 {
			return nil // a keyless root about to shrink: no sibling
		}
		li = 0
	}
	lid, rid := s.Child(parent, li), s.Child(parent, li+1)
	left, err := t.fetch(lid)
	if err != nil {
		return err
	}
	right, err := t.fetch(rid)
	if err != nil {
		t.unpin(lid, false)
		return err
	}
	t.pl.Lock(pid)
	t.pl.LockRight(lid)
	t.pl.LockRight(rid)
	merged, err := t.rebalancePair(parent, li, lid, left, right, childHeight == 1)
	t.pl.Unlock(rid)
	t.pl.Unlock(lid)
	t.pl.Unlock(pid)

	if err != nil {
		t.unpin(lid, true)
		t.unpin(rid, true)
		return err
	}
	if err := t.unpin(lid, true); err != nil {
		t.unpin(rid, true)
		return err
	}
	if merged {
		// The right page left the tree; discard it only now that its latch
		// is released.
		return t.discard(rid)
	}
	return t.unpin(rid, true)
}

// rebalancePair merges or evens out sibling pages left (page lid) and
// right around parent separator li, keeping their high keys and right
// links, and reports whether right was merged away. Called with all three
// latches held; pins stay with the caller. A leaf pair changes its layout
// before the PreRebalance hook, an internal pair after it (its stab
// extraction needs the keys it moves); both change the parent between the
// hooks.
func (t *Tree) rebalancePair(parent []byte, li int, lid pagefile.PageID, left, right []byte, leaves bool) (bool, error) {
	s := t.shape
	var r Rebalance
	var sep uint32
	if leaves {
		ln, rn := LeafCount(left), LeafCount(right)
		switch {
		case ln+rn <= t.leafCap:
			// Merge: left absorbs right's entries, chain link and high key.
			r = MergeLeaves
			copy(left[LeafHeader+ln*xmldoc.EncodedSize:], right[LeafHeader:LeafHeader+rn*xmldoc.EncodedSize])
			SetLeafCount(left, ln+rn)
			next := LeafNext(right)
			SetLeafNext(left, next)
			SetLeafHigh(left, LeafHigh(right))
			if next != pagefile.InvalidPage {
				if err := t.fixPrev(next, lid); err != nil {
					return false, err
				}
			}
		case ln < t.leafCap/2:
			// Borrow the first entry of right, flags and all.
			r = BorrowLeaf
			el, fl := LeafElem(right, 0)
			RemoveLeafEntry(right, 0, rn)
			InsertLeafEntry(left, ln, ln, el, fl)
		default:
			// Borrow the last entry of left.
			r = BorrowLeaf
			el, fl := LeafElem(left, ln-1)
			SetLeafCount(left, ln-1)
			InsertLeafEntry(right, 0, rn, el, fl)
		}
		if r == BorrowLeaf {
			sep = t.sep(LeafKey(left, LeafCount(left)-1), LeafKey(right, 0))
			SetLeafHigh(left, sep)
		}
	} else {
		lm, rm := s.Count(left), s.Count(right)
		switch {
		case lm+rm+1 <= t.intCap:
			r = MergeNodes
		case lm < t.intCap/2:
			r = RotateLeft
		default:
			r = RotateRight
		}
	}
	if t.hooks != nil {
		if err := t.hooks.PreRebalance(r, parent, li, left, right); err != nil {
			return false, err
		}
	}
	if !leaves {
		sep = t.shiftNodes(r, parent, li, left, right)
	}
	merged := r == MergeLeaves || r == MergeNodes
	if merged {
		s.RemoveEntry(parent, li, s.Count(parent))
	} else {
		s.SetKey(parent, li, sep)
	}
	if t.hooks != nil {
		if err := t.hooks.PostRebalance(r, parent, li, left, right); err != nil {
			return false, err
		}
	}
	return merged, nil
}

// shiftNodes lays out an internal sibling pair for r through parent
// separator li, keeping their right links and high keys, and returns the
// new separator (unused after a merge).
func (t *Tree) shiftNodes(r Rebalance, parent []byte, li int, left, right []byte) uint32 {
	s := t.shape
	lm, rm := s.Count(left), s.Count(right)
	sep := s.Key(parent, li)
	switch r {
	case MergeNodes:
		// left ++ sep ++ right; left absorbs right's link and high key.
		s.InsertEntry(left, lm, lm, sep, s.Child(right, 0))
		copy(left[s.Header+(lm+1)*s.EntrySize:], right[s.Header:s.Header+rm*s.EntrySize])
		s.SetCount(left, lm+rm+1)
		s.SetNext(left, s.Next(right))
		s.SetHigh(left, s.High(right))
		return 0
	case RotateLeft:
		// sep moves down to the end of left, right's first key moves up.
		newSep := s.Key(right, 0)
		s.InsertEntry(left, lm, lm, sep, s.Child(right, 0))
		s.SetChild(right, 0, s.Child(right, 1))
		s.RemoveEntry(right, 0, rm)
		s.SetHigh(left, newSep)
		return newSep
	default:
		// RotateRight: left's last key moves up, sep moves down to the
		// front of right over left's last child.
		newSep := s.Key(left, lm-1)
		s.InsertEntry(right, 0, rm, sep, s.Child(right, 0))
		s.SetChild(right, 0, s.Child(left, lm))
		s.SetCount(left, lm-1)
		s.SetHigh(left, newSep)
		return newSep
	}
}
