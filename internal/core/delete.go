package core

// Algorithm 2 (§4.2): deletion with stab-list maintenance. The element is
// removed from the stab list that holds it during the downward navigation
// (D1) and from its leaf (D2). Underflow triggers redistribution or merging
// (D22/D23, D32/D33); both change some node's key set, so the affected
// elements are re-homed: elements primarily stabbed by a removed or
// replaced key are reinserted into the highest node that still stabs them
// (possibly becoming plain leaf entries with InStabList = no), and elements
// newly stabbed by a key that moved up join that node's stab list.
//
// Concurrency: simple removals are one latched write on the affected
// page. Rebalancing latches the parent and both siblings top-to-bottom,
// left-to-right (the B-link order) and performs the whole rebalance —
// separator rewrite and stab re-homing included — inside that bracket. A
// merge frees the right page only after its latch is released; a reader
// that already resolved the freed id detects the recycled page by its
// type byte and reports ErrCorrupt rather than returning wrong data.

import (
	"fmt"

	"xrtree/internal/metrics"
	"xrtree/internal/obs"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// Delete removes the element whose region starts at start. It returns
// ErrNotFound if no such element is indexed.
func (t *Tree) Delete(start uint32) (err error) {
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	defer t.endStabMove()
	defer t.debugPinBalance()()
	// Resolve the full region first so the destructive descent cannot fail
	// halfway (the stab entry is keyed by the region, not just the start).
	e, err := t.lookupWriter(start, t.c)
	if err != nil {
		return err
	}
	commit := t.beginTx()
	defer commit(&err)
	found := false
	root, h := t.loadRoot()
	t.c.Emit(obs.EvIndexDescend, int64(h))
	if _, err := t.deleteFrom(root, h, e, &found); err != nil {
		return err
	}
	t.count.Add(-1)
	// D4: shrink the tree while the root is an internal node with one child.
	for h > 1 {
		data, err := t.fetch(root)
		if err != nil {
			return err
		}
		if intCount(data) > 0 {
			if err := t.unpin(root, false); err != nil {
				return err
			}
			break
		}
		onlyChild := intChild(data, 0)
		if stabHead(data) != pagefile.InvalidPage {
			t.unpin(root, false)
			return fmt.Errorf("%w: keyless root retains a stab list", ErrCorrupt)
		}
		if err := t.unpin(root, false); err != nil {
			return err
		}
		old := root
		root, h = onlyChild, h-1
		t.setRoot(root, h)
		if err := t.free(old); err != nil {
			return err
		}
	}
	if err := t.syncMeta(); err != nil {
		return err
	}
	return t.debugPostMutation()
}

// Lookup returns the indexed element whose start equals start, attributing
// costs to c (nil discards them). Safe for concurrent readers and a
// concurrent writer: it is a B-link descent over page copies.
func (t *Tree) Lookup(start uint32, c *metrics.Counters) (xmldoc.Element, error) {
	bufp := getPageBuf(t.pool.File().PageSize())
	defer pageBufs.Put(bufp)
	buf := *bufp
	if err := t.descendToLeafCopy(start, c, buf); err != nil {
		return xmldoc.Element{}, err
	}
	pos := leafSearch(buf, start)
	if pos < leafCount(buf) && leafKey(buf, pos) == start {
		el, _ := leafElem(buf, pos)
		el.DocID = t.docID
		addScan(c, 1)
		return el, nil
	}
	return xmldoc.Element{}, fmt.Errorf("%w: start %d", ErrNotFound, start)
}

// lookupWriter is the writer-side point lookup Delete uses to resolve the
// full region before the destructive descent. The caller holds wlatch, so
// the pages are stable and the descent needs no latches or right moves.
func (t *Tree) lookupWriter(start uint32, c *metrics.Counters) (xmldoc.Element, error) {
	id, h := t.loadRoot()
	//xrvet:bounded root-to-leaf descent, at most h iterations
	for level := h; level > 1; level-- {
		data, err := t.fetch(id)
		if err != nil {
			return xmldoc.Element{}, err
		}
		addNode(c)
		child := intChild(data, intSearch(data, start))
		if err := t.unpin(id, false); err != nil {
			return xmldoc.Element{}, err
		}
		id = child
	}
	data, err := t.fetch(id)
	if err != nil {
		return xmldoc.Element{}, err
	}
	defer t.unpin(id, false)
	addLeaf(c)
	pos := leafSearch(data, start)
	if pos < leafCount(data) && leafKey(data, pos) == start {
		el, _ := leafElem(data, pos)
		el.DocID = t.docID
		addScan(c, 1)
		return el, nil
	}
	return xmldoc.Element{}, fmt.Errorf("%w: start %d", ErrNotFound, start)
}

func (t *Tree) leafMin() int { return t.leafCap / 2 }
func (t *Tree) intMin() int  { return t.intCap / 2 }

// deleteFrom removes e from the subtree rooted at id, reporting underflow.
func (t *Tree) deleteFrom(id pagefile.PageID, height int, e xmldoc.Element, foundInStab *bool) (bool, error) {
	data, err := t.fetch(id)
	if err != nil {
		return false, err
	}
	if height == 1 {
		n := leafCount(data)
		pos := leafSearch(data, e.Start)
		if pos >= n || leafKey(data, pos) != e.Start {
			t.unpin(id, false)
			return false, fmt.Errorf("%w: start %d vanished mid-delete", ErrCorrupt, e.Start)
		}
		t.pl.Lock(id)
		removeLeafEntry(data, pos, n)
		t.pl.Unlock(id)
		under := leafCount(data) < t.leafMin()
		return under, t.unpin(id, true)
	}

	// D1: drop e from this node's stab list if it lives here. The chain
	// mutation is covered by the node's exclusive latch.
	if !*foundInStab {
		t.pl.Lock(id)
		found, err := t.stabDeleteElement(data, e.Start, e.End)
		t.pl.Unlock(id)
		if err != nil {
			t.unpin(id, true)
			return false, err
		}
		if found {
			*foundInStab = true
		}
	}
	ci := intSearch(data, e.Start)
	child := intChild(data, ci)
	childUnder, err := t.deleteFrom(child, height-1, e, foundInStab)
	if err != nil {
		t.unpin(id, true)
		return false, err
	}
	if childUnder {
		if err := t.rebalanceChild(id, data, ci, height-1); err != nil {
			t.unpin(id, true)
			return false, err
		}
	}
	under := intCount(data) < t.intMin()
	return under, t.unpin(id, true)
}

// rebalanceChild restores minimum occupancy of the child at index ci of
// the pinned internal node (page parentID). The whole rebalance runs
// inside one latch bracket acquired parent, then left child, then right
// child, so a reader descending through the parent never sees a separator
// pointing at a half-rebalanced pair — or a stab list mid-migration.
func (t *Tree) rebalanceChild(parentID pagefile.PageID, parent []byte, ci int, childHeight int) error {
	m := intCount(parent)
	li := ci - 1
	if ci == 0 {
		if m == 0 {
			return nil // keyless root about to shrink; nothing to pair with
		}
		li = 0
	}
	leftID := intChild(parent, li)
	rightID := intChild(parent, li+1)
	left, err := t.fetch(leftID)
	if err != nil {
		return err
	}
	right, err := t.fetch(rightID)
	if err != nil {
		t.unpin(leftID, false)
		return err
	}

	// Every rebalance variant moves stab content between the parent, the
	// siblings, and plain leaf entries: a stab move in flight.
	t.beginStabMove()
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

// chooseSep picks a separator strictly greater than lastLeft and ≤
// firstRight, preferring firstRight−1 (§3.2) so the separator does not stab
// the right half's first element.
func (t *Tree) chooseSep(lastLeft, firstRight uint32) uint32 {
	if !t.opts.DisableKeyChoice && firstRight-1 > lastLeft {
		return firstRight - 1
	}
	return firstRight
}

// clearFlagInLeaf resets the InStabList flag of the entry with the given
// start in a pinned leaf; missing entries are a corruption error.
func clearFlagInLeaf(data []byte, start uint32) error {
	pos := leafSearch(data, start)
	if pos >= leafCount(data) || leafKey(data, pos) != start {
		return fmt.Errorf("%w: flag target %d not in leaf", ErrCorrupt, start)
	}
	_, fl := leafElem(data, pos)
	setLeafFlags(data, pos, fl&^xmldoc.FlagInStabList)
	return nil
}

// clearFlagInEitherLeaf clears the flag for start in whichever pinned leaf
// contains it.
func clearFlagInEitherLeaf(left, right []byte, start uint32) error {
	if leafCount(right) > 0 && start >= leafKey(right, 0) {
		return clearFlagInLeaf(right, start)
	}
	return clearFlagInLeaf(left, start)
}

// promoteNewlyStabbed moves leaf entries with a clear flag that are stabbed
// by sep into the pinned parent's stab list (the leaf-split StabSet'
// collection, reused when a separator value changes).
func (t *Tree) promoteNewlyStabbed(parent, leaf []byte, sep uint32) error {
	cnt := leafCount(leaf)
	for i := 0; i < cnt; i++ {
		el, fl := leafElem(leaf, i)
		if fl&xmldoc.FlagInStabList != 0 {
			continue
		}
		if el.Start <= sep && sep <= el.End {
			setLeafFlags(leaf, i, fl|xmldoc.FlagInStabList)
			el.DocID = t.docID
			if err := t.stabInsertElement(parent, el); err != nil {
				return err
			}
		}
	}
	return nil
}

// rebalanceLeaves redistributes or merges two sibling leaves under the
// parent, maintaining their B-link high keys (D22/D23). Called with all
// three page latches held; reports whether the right page was merged
// away. Pins stay with the caller.
func (t *Tree) rebalanceLeaves(parent []byte, li int, leftID pagefile.PageID, left []byte, rightID pagefile.PageID, right []byte) (bool, error) {
	ln, rn := leafCount(left), leafCount(right)

	if ln+rn <= t.leafCap {
		// D23: merge right into left and drop the separator from the
		// parent; left absorbs right's entries, chain link, and high key.
		copy(left[leafHeader+ln*xmldoc.EncodedSize:], right[leafHeader:leafHeader+rn*xmldoc.EncodedSize])
		setLeafCount(left, ln+rn)
		next := leafNext(right)
		setLeafNext(left, next)
		setLeafHigh(left, leafHigh(right))
		if next != pagefile.InvalidPage {
			nd, err := t.fetch(next)
			if err != nil {
				return false, err
			}
			t.pl.LockRight(next)
			setLeafPrev(nd, leftID)
			t.pl.Unlock(next)
			if err := t.unpin(next, true); err != nil {
				return false, err
			}
		}
		// Re-home the parent's elements primarily stabbed by the separator:
		// back into the parent under another key, or down to a plain leaf
		// entry (the children are leaves, so there is no lower stab list).
		ext, err := t.extractPSL(parent, li)
		if err != nil {
			return false, err
		}
		removeIntEntry(parent, li, intCount(parent))
		rejects, err := t.stabReinsertAll(parent, ext)
		if err != nil {
			return false, err
		}
		for _, se := range rejects {
			if err := clearFlagInLeaf(left, se.start); err != nil {
				return false, err
			}
		}
		return true, nil
	}

	// D22: redistribute one entry and replace the separator.
	min := t.leafMin()
	if ln < min {
		// Borrow the first entry of right.
		el, fl := leafElem(right, 0)
		removeLeafEntry(right, 0, rn)
		insertLeafEntry(left, ln, ln, el, fl)
	} else {
		// Borrow the last entry of left.
		el, fl := leafElem(left, ln-1)
		setLeafCount(left, ln-1)
		insertLeafEntry(right, 0, rn, el, fl)
	}
	newSep := t.chooseSep(leafKey(left, leafCount(left)-1), leafKey(right, 0))
	setLeafHigh(left, newSep)
	return false, t.replaceLeafSeparator(parent, li, newSep, left, right)
}

// replaceLeafSeparator changes parent key li to newSep between two pinned
// leaves, re-homing stab entries in both directions: parent elements only
// stabbed by the old separator fall back to plain leaf entries, and leaf
// elements newly stabbed by newSep rise into the parent's stab list.
func (t *Tree) replaceLeafSeparator(parent []byte, li int, newSep uint32, left, right []byte) error {
	ext, err := t.extractPSL(parent, li)
	if err != nil {
		return err
	}
	setIntKey(parent, li, newSep)
	// A separator that grew may now be the primary stabbing key of entries
	// in its successor's PSL.
	if err := t.rekeyStabbedPrefix(parent, li); err != nil {
		return err
	}
	rejects, err := t.stabReinsertAll(parent, ext)
	if err != nil {
		return err
	}
	for _, se := range rejects {
		if err := clearFlagInEitherLeaf(left, right, se.start); err != nil {
			return err
		}
	}
	if err := t.promoteNewlyStabbed(parent, left, newSep); err != nil {
		return err
	}
	return t.promoteNewlyStabbed(parent, right, newSep)
}

// rebalanceInternals redistributes or merges two sibling internal nodes
// through the parent's separator li, maintaining right links and high
// keys (D32/D33). Called with all three page latches held; reports
// whether the right page was merged away. Pins stay with the caller.
func (t *Tree) rebalanceInternals(parent []byte, li int, left, right []byte) (bool, error) {
	lm, rm := intCount(left), intCount(right)
	sep := intKey(parent, li)

	if lm+rm+1 <= t.intCap {
		// D33: merge left ++ sep ++ right; the separator is pulled down into
		// the merged node and the two stab chains are concatenated. The
		// merged node absorbs the right's link and high key.
		extP, err := t.extractPSL(parent, li)
		if err != nil {
			return false, err
		}
		if err := t.mergeStabChains(left, right); err != nil {
			return false, err
		}
		writeIntEntry(left, lm, intEntryMem{key: sep, child: intChild(right, 0), psl: pagefile.InvalidPage})
		for i := 0; i < rm; i++ {
			writeIntEntry(left, lm+1+i, readIntEntry(right, i))
		}
		setIntCount(left, lm+rm+1)
		setIntNext(left, intNext(right))
		setIntHigh(left, intHigh(right))
		if err := t.rekeyStabbedPrefix(left, lm); err != nil {
			return false, err
		}
		removeIntEntry(parent, li, intCount(parent))

		// Parent elements primarily stabbed by sep either stay in the
		// parent under another key or descend into the merged node, where
		// sep still stabs them.
		rejects, err := t.stabReinsertAll(parent, extP)
		if err != nil {
			return false, err
		}
		r2, err := t.stabReinsertAll(left, rejects)
		if err != nil {
			return false, err
		}
		if len(r2) > 0 {
			return false, fmt.Errorf("%w: %d elements lost in internal merge", ErrCorrupt, len(r2))
		}
		return true, nil
	}

	// D32: rotate one key through the parent.
	min := t.intMin()
	if lm < min {
		return false, t.rotateLeft(parent, li, left, right)
	}
	return false, t.rotateRight(parent, li, left, right)
}

// rotateLeft moves the right sibling's first key up to the parent and the
// old separator down into the left sibling. Stab entries follow their keys:
// PSL(old separator) leaves the parent (back into the parent under another
// key, or down into the left sibling where the separator now lives) and the
// right sibling's PSL(first key) rises into the parent.
func (t *Tree) rotateLeft(parent []byte, li int, left, right []byte) error {
	sep := intKey(parent, li)
	newSep := intKey(right, 0)

	extP, err := t.extractPSL(parent, li)
	if err != nil {
		return err
	}
	extR, err := t.extractPSL(right, 0)
	if err != nil {
		return err
	}

	lm := intCount(left)
	writeIntEntry(left, lm, intEntryMem{key: sep, child: intChild(right, 0), psl: pagefile.InvalidPage})
	setIntCount(left, lm+1)
	setIntChild(right, 0, intChild(right, 1))
	removeIntEntry(right, 0, intCount(right))
	setIntKey(parent, li, newSep)
	setIntHigh(left, newSep)
	if err := t.rekeyStabbedPrefix(parent, li); err != nil {
		return err
	}

	// The rotated-up key's elements join the parent.
	if rejects, err := t.stabReinsertAll(parent, extR); err != nil {
		return err
	} else if len(rejects) > 0 {
		return fmt.Errorf("%w: %d elements lost in rotateLeft", ErrCorrupt, len(rejects))
	}
	// The old separator's elements re-home in the parent or follow it down.
	rejects, err := t.stabReinsertAll(parent, extP)
	if err != nil {
		return err
	}
	r2, err := t.stabReinsertAll(left, rejects)
	if err != nil {
		return err
	}
	if len(r2) > 0 {
		return fmt.Errorf("%w: %d elements lost in rotateLeft", ErrCorrupt, len(r2))
	}
	return nil
}

// rotateRight moves the left sibling's last key up to the parent and the
// old separator down into the right sibling. Elements stabbed by the
// rotated-up key anywhere in the left sibling's stab list rise with it.
func (t *Tree) rotateRight(parent []byte, li int, left, right []byte) error {
	sep := intKey(parent, li)
	lm := intCount(left)
	newSep := intKey(left, lm-1)

	extP, err := t.extractPSL(parent, li)
	if err != nil {
		return err
	}
	// Everything in the left sibling stabbed by the rising key moves up:
	// PSL(newSep) entirely, plus the stabbed prefixes of earlier PSLs.
	extL, err := t.extractStabbedBy(left, newSep)
	if err != nil {
		return err
	}

	lastChild := intChild(left, lm)
	oldChild0 := intChild(right, 0)
	shiftIntEntriesRight(right)
	writeIntEntry(right, 0, intEntryMem{key: sep, child: oldChild0, psl: pagefile.InvalidPage})
	setIntChild(right, 0, lastChild)
	setIntCount(left, lm-1)
	setIntKey(parent, li, newSep)
	setIntHigh(left, newSep)
	if err := t.rekeyStabbedPrefix(right, 0); err != nil {
		return err
	}

	if rejects, err := t.stabReinsertAll(parent, extL); err != nil {
		return err
	} else if len(rejects) > 0 {
		return fmt.Errorf("%w: %d elements lost in rotateRight", ErrCorrupt, len(rejects))
	}
	rejects, err := t.stabReinsertAll(parent, extP)
	if err != nil {
		return err
	}
	r2, err := t.stabReinsertAll(right, rejects)
	if err != nil {
		return err
	}
	if len(r2) > 0 {
		return fmt.Errorf("%w: %d elements lost in rotateRight", ErrCorrupt, len(r2))
	}
	return nil
}

// shiftIntEntriesRight opens entry slot 0 of an internal node by moving all
// m entries one slot right and bumping the count. The caller fills slot 0
// and child 0.
func shiftIntEntriesRight(data []byte) {
	m := intCount(data)
	start := intHeader
	end := intHeader + m*intEntrySize
	copy(data[start+intEntrySize:end+intEntrySize], data[start:end])
	setIntCount(data, m+1)
}
