package core

// Algorithm 2 (§4.2): deletion with stab-list maintenance. The B+-tree
// delete itself — descent, borrow, rotation and merge in the B-link order,
// root shrink — is the write layer of internal/blink; this file holds the
// stab steps the layer calls. The element is removed from the stab list
// that holds it during the downward navigation (D1) and from its leaf
// (D2). Underflow triggers redistribution or merging
// (D22/D23, D32/D33); both change some node's key set, so the affected
// elements are re-homed: elements primarily stabbed by a removed or
// replaced key are reinserted into the highest node that still stabs them
// (possibly becoming plain leaf entries with InStabList = no), and
// elements newly stabbed by a key that moved up join that node's stab
// list. The layer calls D1 with the node latched and each rebalance step
// with the parent and both siblings latched.

import (
	"fmt"

	"xrtree/internal/blink"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// Region resolves the full region of the element starting at start, for
// Delete, before its transaction opens (the stab entry is keyed by the
// region, not just the start). The caller holds the writer latch, so the
// pages are stable and the descent needs no latches or right moves. It
// pins pages rather than copying them as blink.Tree.Lookup does: the two
// leave the buffer pool's replacement order in different states, and with
// it which stale bytes a recycled page carries.
func (h stabHooks) Region(start uint32) (xmldoc.Element, error) {
	id, ht := h.Root()
	//xrvet:bounded root-to-leaf descent, at most ht iterations
	for level := ht; level > 1; level-- {
		data, err := h.w.Fetch(id)
		if err != nil {
			return xmldoc.Element{}, err
		}
		child := intShape.Child(data, intShape.Search(data, start))
		if err := h.w.Unpin(id, false); err != nil {
			return xmldoc.Element{}, err
		}
		id = child
	}
	data, err := h.w.Fetch(id)
	if err != nil {
		return xmldoc.Element{}, err
	}
	defer h.w.Unpin(id, false)
	pos := blink.LeafSearch(data, start)
	if pos < blink.LeafCount(data) && blink.LeafKey(data, pos) == start {
		el, _ := blink.LeafElem(data, pos)
		el.DocID = h.DocID()
		return el, nil
	}
	return xmldoc.Element{}, fmt.Errorf("%w: start %d", ErrNotFound, start)
}

// Unhome drops e from node d's stab list if it lives there (D1), or
// undoes Home when the insert failed below d.
func (h stabHooks) Unhome(d []byte, e xmldoc.Element) (bool, error) {
	return h.stabDeleteElement(d, e.Start, e.End)
}

// ShrinkRoot refuses to drop a keyless root that still holds a stab list
// (D4): no key can stab its entries.
func (h stabHooks) ShrinkRoot(root []byte) error {
	if stabHead(root) != pagefile.InvalidPage {
		return fmt.Errorf("%w: keyless root retains a stab list", ErrCorrupt)
	}
	return nil
}

// PreRebalance runs before the parent's separator li changes: PSL(li)
// leaves the parent, and for an internal pair the sibling side is prepared
// before its layout moves keys — the two chains join ahead of a merge
// (D33), and the key rotating up takes its elements along (D32): PSL of
// right's first key, or everything in left that left's last key stabs.
// Every rebalance moves stab content between containers: a stab move.
func (h stabHooks) PreRebalance(r blink.Rebalance, parent []byte, li int, left, right []byte) (err error) {
	h.beginStabMove()
	if h.sepPSL, err = h.extractPSL(parent, li); err != nil {
		return err
	}
	h.rising = nil
	switch r {
	case blink.MergeNodes:
		h.sepAt = intShape.Count(left)
		return h.mergeStabChains(left, right)
	case blink.RotateLeft:
		h.rising, err = h.extractPSL(right, 0)
	case blink.RotateRight:
		h.rising, err = h.extractStabbedBy(left, intShape.Key(left, intShape.Count(left)-1))
	}
	return err
}

// PostRebalance re-homes after the separator changed. A key that moved or
// grew first regroups the PSL after it (Definition 2); a rotated-up key's
// elements join the parent. The old separator's elements then return to
// the parent under another key where one stabs them, else follow the
// separator down: into the internal sibling that now holds it, or, below
// a leaf separator, back to plain leaf entries with their flags cleared.
// Leaf elements newly stabbed by a replaced leaf separator rise into the
// parent (D22).
func (h stabHooks) PostRebalance(r blink.Rebalance, parent []byte, li int, left, right []byte) error {
	var err error
	switch r {
	case blink.BorrowLeaf, blink.RotateLeft:
		err = h.rekeyStabbedPrefix(parent, li)
	case blink.MergeNodes:
		err = h.rekeyStabbedPrefix(left, h.sepAt)
	case blink.RotateRight:
		err = h.rekeyStabbedPrefix(right, 0)
	}
	if err == nil {
		err = h.reinsertAll(parent, h.rising)
	}
	if err != nil {
		return err
	}
	rejects, err := h.stabReinsertAll(parent, h.sepPSL)
	if err != nil {
		return err
	}
	switch r {
	case blink.MergeLeaves:
		for _, se := range rejects {
			if err := clearFlag(left, se.start); err != nil {
				return err
			}
		}
	case blink.BorrowLeaf:
		for _, se := range rejects {
			d := left
			if se.start >= blink.LeafKey(right, 0) {
				d = right
			}
			if err := clearFlag(d, se.start); err != nil {
				return err
			}
		}
		sep := intShape.Key(parent, li)
		if err := h.promoteNewlyStabbed(parent, left, sep); err != nil {
			return err
		}
		return h.promoteNewlyStabbed(parent, right, sep)
	case blink.RotateRight:
		return h.reinsertAll(right, rejects)
	default:
		return h.reinsertAll(left, rejects)
	}
	return nil
}

// clearFlag resets the InStabList flag of the entry with the given start
// in a pinned leaf; a missing entry is a corruption error.
func clearFlag(d []byte, start uint32) error {
	pos := blink.LeafSearch(d, start)
	if pos >= blink.LeafCount(d) || blink.LeafKey(d, pos) != start {
		return fmt.Errorf("%w: flag target %d not in leaf", ErrCorrupt, start)
	}
	_, fl := blink.LeafElem(d, pos)
	blink.SetLeafFlags(d, pos, fl&^xmldoc.FlagInStabList)
	return nil
}

// promoteNewlyStabbed moves leaf entries with a clear flag that are stabbed
// by sep into the pinned parent's stab list (the leaf-split StabSet'
// collection, reused when a separator value changes).
func (t *Tree) promoteNewlyStabbed(parent, leaf []byte, sep uint32) error {
	for i := range blink.LeafCount(leaf) {
		el, fl := blink.LeafElem(leaf, i)
		if fl&xmldoc.FlagInStabList == 0 && el.Start <= sep && sep <= el.End {
			blink.SetLeafFlags(leaf, i, fl|xmldoc.FlagInStabList)
			el.DocID = t.DocID()
			if err := t.stabInsertElement(parent, el); err != nil {
				return err
			}
		}
	}
	return nil
}
