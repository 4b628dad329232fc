package btree

import (
	"fmt"

	"xrtree/internal/blink"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// Delete removes the element with the given start key. It returns
// ErrNotFound if no such element exists.
//
// Deletes follow the same per-page latching as Insert. Rebalancing latches
// the parent and both siblings top-to-bottom, left-to-right (the B-link
// order), so readers see either the pre-rebalance pair or the final one.
// A merge frees the right page after its latch is released; a reader that
// already resolved the freed id detects the recycled page by its type
// byte and reports ErrCorrupt rather than returning wrong data — the same
// contract leaf-chain scans have always had for racing merges.
func (t *Tree) Delete(key uint32) (err error) {
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	defer t.debugPinBalance()()
	commit := t.beginTx()
	defer commit(&err)
	root, h := t.Root()
	if _, err := t.deleteFrom(root, h, key); err != nil {
		return err
	}
	t.count.Add(-1)
	// Shrink the tree if the root is an internal node with a single child.
	for h > 1 {
		data, err := t.fetch(root)
		if err != nil {
			return err
		}
		if intShape.Count(data) > 0 {
			if err := t.unpin(root, false); err != nil {
				return err
			}
			break
		}
		onlyChild := intShape.Child(data, 0)
		if err := t.unpin(root, false); err != nil {
			return err
		}
		old := root
		root, h = onlyChild, h-1
		t.SetRoot(root, h)
		if err := t.free(old); err != nil {
			return err
		}
	}
	return t.syncMeta()
}

func (t *Tree) leafMin() int { return t.leafCap / 2 }
func (t *Tree) intMin() int  { return t.intCap / 2 }

// deleteFrom removes key from the subtree rooted at id (height 1 = leaf).
// It reports whether the node underflowed below its minimum occupancy.
func (t *Tree) deleteFrom(id pagefile.PageID, height int, key uint32) (bool, error) {
	data, err := t.fetch(id)
	if err != nil {
		return false, err
	}
	if height == 1 {
		t.countLeaf()
		n := blink.LeafCount(data)
		pos := blink.LeafSearch(data, key)
		if pos >= n || blink.LeafKey(data, pos) != key {
			t.unpin(id, false)
			return false, fmt.Errorf("%w: start %d", ErrNotFound, key)
		}
		t.pl.Lock(id)
		blink.RemoveLeafEntry(data, pos, n)
		t.pl.Unlock(id)
		under := blink.LeafCount(data) < t.leafMin()
		return under, t.unpin(id, true)
	}

	t.countNode()
	ci := intShape.Search(data, key)
	child := intShape.Child(data, ci)
	childUnder, err := t.deleteFrom(child, height-1, key)
	if err != nil {
		t.unpin(id, false)
		return false, err
	}
	if !childUnder {
		return false, t.unpin(id, false)
	}
	if err := t.rebalanceChild(id, data, ci, height-1); err != nil {
		t.unpin(id, true)
		return false, err
	}
	m := intShape.Count(data)
	return m < t.intMin(), t.unpin(id, true)
}

// rebalanceChild restores minimum occupancy of the child at index ci of the
// pinned internal page data (page id), whose children live at childHeight.
func (t *Tree) rebalanceChild(id pagefile.PageID, data []byte, ci int, childHeight int) error {
	m := intShape.Count(data)
	// Prefer borrowing from / merging with the left sibling; fall back to
	// the right sibling when ci is the leftmost child.
	if ci > 0 {
		return t.rebalancePair(id, data, ci-1, childHeight)
	}
	if ci < m {
		return t.rebalancePair(id, data, ci, childHeight)
	}
	// Single-child node: nothing to rebalance against (only possible at a
	// root that is about to shrink).
	return nil
}

// rebalancePair fixes the pair of children at indexes li and li+1 separated
// by parent key li. One of them is known to be under minimum. The whole
// rebalance — parent separator rewrite included — happens inside one latch
// bracket acquired parent, then left child, then right child, so a reader
// descending through the parent never sees a separator pointing at a
// half-rebalanced pair.
func (t *Tree) rebalancePair(parentID pagefile.PageID, parent []byte, li int, childHeight int) error {
	leftID := intShape.Child(parent, li)
	rightID := intShape.Child(parent, li+1)
	left, err := t.fetch(leftID)
	if err != nil {
		return err
	}
	right, err := t.fetch(rightID)
	if err != nil {
		t.unpin(leftID, false)
		return err
	}

	t.pl.Lock(parentID)
	t.pl.LockRight(leftID)
	t.pl.LockRight(rightID)
	var merged bool
	if childHeight == 1 {
		merged, err = t.rebalanceLeaves(parent, li, leftID, left, rightID, right)
	} else {
		merged, err = t.rebalanceInternals(parent, li, left, right)
	}
	t.pl.Unlock(rightID)
	t.pl.Unlock(leftID)
	t.pl.Unlock(parentID)

	if err != nil {
		t.unpin(leftID, true)
		t.unpin(rightID, true)
		return err
	}
	if err := t.unpin(leftID, true); err != nil {
		t.unpin(rightID, true)
		return err
	}
	if merged {
		// The right page leaves the tree; free it only after its latch is
		// released (a blocked reader re-checks the page type and errors).
		return t.discard(rightID)
	}
	return t.unpin(rightID, true)
}

// rebalanceLeaves redistributes or merges two sibling leaves, maintaining
// their B-link high keys. Called with all three page latches held; reports
// whether the right page was merged away. Pins stay with the caller.
func (t *Tree) rebalanceLeaves(parent []byte, li int, leftID pagefile.PageID, left []byte, rightID pagefile.PageID, right []byte) (bool, error) {
	ln, rn := blink.LeafCount(left), blink.LeafCount(right)
	min := t.leafMin()
	switch {
	case ln+rn <= t.leafCap:
		// Merge right into left: left absorbs right's entries, chain link,
		// and high key.
		copy(left[blink.LeafHeader+ln*xmldoc.EncodedSize:], right[blink.LeafHeader:blink.LeafHeader+rn*xmldoc.EncodedSize])
		blink.SetLeafCount(left, ln+rn)
		next := blink.LeafNext(right)
		blink.SetLeafNext(left, next)
		blink.SetLeafHigh(left, blink.LeafHigh(right))
		if next != pagefile.InvalidPage {
			nd, err := t.fetch(next)
			if err != nil {
				return false, err
			}
			t.pl.LockRight(next)
			blink.SetLeafPrev(nd, leftID)
			t.pl.Unlock(next)
			if err := t.unpin(next, true); err != nil {
				return false, err
			}
		}
		intShape.RemoveEntry(parent, li, intShape.Count(parent))
		return true, nil

	case ln < min:
		// Borrow the first entry of right.
		e, _ := blink.LeafElem(right, 0)
		blink.RemoveLeafEntry(right, 0, rn)
		blink.InsertLeafEntry(left, ln, ln, e, 0)
		sep := blink.LeafKey(right, 0)
		intShape.SetKey(parent, li, sep)
		blink.SetLeafHigh(left, sep)

	default:
		// Borrow the last entry of left.
		e, _ := blink.LeafElem(left, ln-1)
		blink.SetLeafCount(left, ln-1)
		blink.InsertLeafEntry(right, 0, rn, e, 0)
		intShape.SetKey(parent, li, e.Start)
		blink.SetLeafHigh(left, e.Start)
	}
	return false, nil
}

// rebalanceInternals redistributes or merges two sibling internal nodes
// through the parent separator at index li, maintaining right links and
// high keys. Called with all three page latches held; reports whether the
// right page was merged away. Pins stay with the caller.
func (t *Tree) rebalanceInternals(parent []byte, li int, left, right []byte) (bool, error) {
	lm, rm := intShape.Count(left), intShape.Count(right)
	sep := intShape.Key(parent, li)
	min := t.intMin()
	switch {
	case lm+rm+1 <= t.intCap:
		// Merge: left ++ sep ++ right; left absorbs right's link and high.
		intShape.SetKey(left, lm, sep)
		intShape.SetChild(left, lm+1, intShape.Child(right, 0))
		for i := 0; i < rm; i++ {
			intShape.SetKey(left, lm+1+i, intShape.Key(right, i))
			intShape.SetChild(left, lm+2+i, intShape.Child(right, i+1))
		}
		intShape.SetCount(left, lm+rm+1)
		intShape.SetNext(left, intShape.Next(right))
		intShape.SetHigh(left, intShape.High(right))
		intShape.RemoveEntry(parent, li, intShape.Count(parent))
		return true, nil

	case lm < min:
		// Rotate left: sep moves down to left, right's first key moves up.
		newSep := intShape.Key(right, 0)
		intShape.SetKey(left, lm, sep)
		intShape.SetChild(left, lm+1, intShape.Child(right, 0))
		intShape.SetCount(left, lm+1)
		intShape.SetKey(parent, li, newSep)
		intShape.SetChild(right, 0, intShape.Child(right, 1))
		intShape.RemoveEntry(right, 0, rm)
		intShape.SetHigh(left, newSep)

	default:
		// Rotate right: left's last key moves up, sep moves down to right.
		// shiftIntRight moves right's old child 0 into the child-1 slot and
		// opens key 0 / child 0 for the incoming entry.
		newSep := intShape.Key(left, lm-1)
		shiftIntRight(right, rm)
		intShape.SetKey(right, 0, sep)
		intShape.SetCount(right, rm+1)
		intShape.SetKey(parent, li, newSep)
		intShape.SetChild(right, 0, intShape.Child(left, lm))
		intShape.SetCount(left, lm-1)
		intShape.SetHigh(left, newSep)
	}
	return false, nil
}

// shiftIntRight makes room for one entry at the front of an internal page
// with m keys: entries move one slot right and child pointers shift so that
// old child i becomes child i+1. Child 0 and key 0 are left for the caller
// to fill.
func shiftIntRight(data []byte, m int) {
	// Move the key/child entry array right by one slot.
	start := intShape.Header
	end := intShape.Header + m*intShape.EntrySize
	copy(data[start+intShape.EntrySize:end+intShape.EntrySize], data[start:end])
	// Old child0 becomes the child of the (new) first entry.
	intShape.SetChild(data, 1, intShape.Child(data, 0))
}
