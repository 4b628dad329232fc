package core

// This file implements the stab-list chain primitives of §3.3 and §4.3:
// inserting an element into a node's stab list (cost C_SI), deleting one
// (cost C_SD), locating a primary stab list through the directory pointers
// (1–2 page accesses, Figure 4), extracting the elements stabbed by a key
// (the StabSet' of Figure 5(b)), and splitting/merging whole chains during
// node splits and merges (Figure 5(a)).
//
// A node's stab list is a doubly linked chain of stab pages whose entries
// are sorted by (primary key, start) across the whole chain. The run of
// entries with key == k is PSL(k), stored outermost-first; by strict
// nesting the elements stabbed by any probe position form a prefix of a
// PSL, which is what makes Algorithm 5 stop early.

import (
	"fmt"

	"xrtree/internal/obs"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// stabLoc addresses one entry in a stab chain.
type stabLoc struct {
	page pagefile.PageID
	idx  int
}

// fetchStab pins a stab page through the write side and validates its
// type. It is a held fetch: mutations rewrite stab pages in place, and any
// page a transaction can dirty must be in its held set or its after-image
// never reaches the log.
func (t *Tree) fetchStab(id pagefile.PageID) ([]byte, error) {
	data, err := t.w.Fetch(id)
	if err != nil {
		return nil, err
	}
	if data[0] != stabType {
		t.w.Unpin(id, false)
		return nil, fmt.Errorf("%w: page %d is not a stab page", ErrCorrupt, id)
	}
	return data, nil
}

// fetchStabRead is the reader-side twin of fetchStab: a plain pool fetch
// that never joins the transaction of a possibly concurrent writer.
// Callers must hold the owning node's shared page latch, which covers the
// whole stab chain.
func (t *Tree) fetchStabRead(id pagefile.PageID, tr obs.Tracer) ([]byte, error) {
	data, err := t.pool.FetchTraced(id, tr)
	if err != nil {
		return nil, err
	}
	if data[0] != stabType {
		t.pool.Unpin(id, false)
		return nil, fmt.Errorf("%w: page %d is not a stab page", ErrCorrupt, id)
	}
	return data, nil
}

// stabInsertElement inserts e into the stab list of the pinned internal
// node, keyed by its primary stabbing key. The caller must guarantee that
// at least one key of the node stabs e. Reports whether the node page was
// modified (always true) via its error-free return.
func (t *Tree) stabInsertElement(node []byte, e xmldoc.Element) error {
	j := primaryKeyIndex(node, e.Start, e.End)
	if j < 0 {
		return fmt.Errorf("%w: stabInsertElement: no key stabs %v", ErrCorrupt, e)
	}
	kv := intShape.Key(node, j)
	se := stabEntry{key: kv, start: e.Start, end: e.End, ref: e.Ref, level: e.Level}

	loc, err := t.findStabInsertPos(node, j, se)
	if err != nil {
		return err
	}
	if err := t.insertAt(node, loc, se); err != nil {
		return err
	}
	// Update the directory entry for key j if e is the new PSL head.
	ps := keyPS(node, j)
	if ps == 0 || e.Start < ps {
		setKeyPSPE(node, j, e.Start, e.End)
		// The head location may have been adjusted by a page split inside
		// insertAt; recompute it cheaply: insertAt returns nothing, so we
		// locate the head via the chain. The head is the entry we just
		// inserted, whose page insertAt recorded in t.lastInsertPage.
		setKeyPSLPage(node, j, t.lastInsertPage)
	}
	t.stabCount.Add(1)
	return nil
}

// findStabInsertPos returns the location at which a new entry for key index
// j must be inserted to keep the chain sorted by (key, start).
//
// With a non-empty PSL(j) the directory points at its head page directly;
// otherwise the head of the next non-empty PSL (or the chain tail) bounds
// the position — the same ≤2-page guarantee the paper's ps directory gives.
func (t *Tree) findStabInsertPos(node []byte, j int, se stabEntry) (stabLoc, error) {
	m := intShape.Count(node)
	if p := keyPSLPage(node, j); p != pagefile.InvalidPage {
		return t.scanForward(p, se)
	}
	// PSL(j) empty: insert immediately before the head of the next
	// non-empty PSL.
	for nj := j + 1; nj < m; nj++ {
		if p := keyPSLPage(node, nj); p != pagefile.InvalidPage {
			nk := intShape.Key(node, nj)
			data, err := t.fetchStab(p)
			if err != nil {
				return stabLoc{}, err
			}
			n := stabCount(data)
			for i := 0; i < n; i++ {
				en := stabEntryAt(data, i)
				if en.key == nk {
					if err := t.w.Unpin(p, false); err != nil {
						return stabLoc{}, err
					}
					return stabLoc{page: p, idx: i}, nil
				}
			}
			t.w.Unpin(p, false)
			return stabLoc{}, fmt.Errorf("%w: PSL head for key %d not on page %d", ErrCorrupt, nk, p)
		}
	}
	// No later PSL: append at the chain tail.
	tail := stabTail(node)
	if tail == pagefile.InvalidPage {
		return stabLoc{page: pagefile.InvalidPage, idx: 0}, nil // empty chain
	}
	data, err := t.fetchStab(tail)
	if err != nil {
		return stabLoc{}, err
	}
	n := stabCount(data)
	if err := t.w.Unpin(tail, false); err != nil {
		return stabLoc{}, err
	}
	return stabLoc{page: tail, idx: n}, nil
}

// scanForward walks from page p to find the sorted position for se. The
// scan normally stays within 1–2 pages because p is the head page of
// se.key's PSL.
func (t *Tree) scanForward(p pagefile.PageID, se stabEntry) (stabLoc, error) {
	for {
		data, err := t.fetchStab(p)
		if err != nil {
			return stabLoc{}, err
		}
		n := stabCount(data)
		// Find the first entry ≥ (se.key, se.start).
		for i := 0; i < n; i++ {
			en := stabEntryAt(data, i)
			if !stabLess(en.key, en.start, se.key, se.start) {
				if err := t.w.Unpin(p, false); err != nil {
					return stabLoc{}, err
				}
				return stabLoc{page: p, idx: i}, nil
			}
		}
		next := stabNext(data)
		if err := t.w.Unpin(p, false); err != nil {
			return stabLoc{}, err
		}
		if next == pagefile.InvalidPage {
			return stabLoc{page: p, idx: n}, nil
		}
		p = next
	}
}

// insertAt physically inserts se at loc, allocating or splitting stab pages
// as needed and fixing any directory pointers whose PSL head moves. It
// records the page that finally holds se in t.lastInsertPage.
func (t *Tree) insertAt(node []byte, loc stabLoc, se stabEntry) error {
	if loc.page == pagefile.InvalidPage {
		// Empty chain: allocate the first page.
		id, data, err := t.w.FetchNew()
		if err != nil {
			return err
		}
		initStabPage(data)
		putStabEntry(data, 0, se)
		setStabCount(data, 1)
		if err := t.w.Unpin(id, true); err != nil {
			return err
		}
		setStabHead(node, id)
		setStabTail(node, id)
		t.stabPages.Add(1)
		t.lastInsertPage = id
		return nil
	}

	data, err := t.fetchStab(loc.page)
	if err != nil {
		return err
	}
	n := stabCount(data)
	if n < t.stabCap {
		insertStabEntry(data, loc.idx, n, se)
		t.lastInsertPage = loc.page
		return t.w.Unpin(loc.page, true)
	}

	// Page full: split it, keeping the first half in place.
	newID, newData, err := t.w.FetchNew()
	if err != nil {
		t.w.Unpin(loc.page, false)
		return err
	}
	initStabPage(newData)
	mid := n / 2
	moved := n - mid
	copy(newData[stabHeader:stabHeader+moved*stabEntrySize],
		data[stabHeader+mid*stabEntrySize:stabHeader+n*stabEntrySize])
	setStabCount(newData, moved)
	setStabCount(data, mid)
	t.stabPages.Add(1)

	// Relink: P -> Q -> oldNext.
	oldNext := stabNext(data)
	setStabNext(newData, oldNext)
	setStabPrev(newData, loc.page)
	setStabNext(data, newID)
	if oldNext != pagefile.InvalidPage {
		nd, err := t.fetchStab(oldNext)
		if err == nil {
			setStabPrev(nd, newID)
			err = t.w.Unpin(oldNext, true)
		}
		if err != nil {
			t.w.Unpin(newID, true)
			t.w.Unpin(loc.page, true)
			return err
		}
	} else {
		setStabTail(node, newID)
	}

	// Fix directory pointers: any key whose value exceeds the last key left
	// in P had its PSL head move to Q (the chain is globally key-sorted, so
	// "key greater than P's new last key" ⟺ "first occurrence now in Q").
	lastP := stabEntryAt(data, mid-1).key
	fixHeads := func(pageData []byte, pageID pagefile.PageID) {
		cnt := stabCount(pageData)
		prev := uint32(0)
		for i := 0; i < cnt; i++ {
			k := stabEntryAt(pageData, i).key
			if k == prev || k <= lastP {
				prev = k
				continue
			}
			prev = k
			if ki := keyIndex(node, k); ki >= 0 {
				setKeyPSLPage(node, ki, pageID)
			}
		}
	}
	fixHeads(newData, newID)

	// Insert into the proper half.
	if loc.idx <= mid {
		// Position falls in P (inserting at index mid belongs to P's end).
		insertStabEntry(data, loc.idx, mid, se)
		t.lastInsertPage = loc.page
		// If se.key > lastP we may have wrongly pointed its head at Q when
		// an equal-key run starts here; recompute for se.key explicitly
		// below via the caller's head update. Heads for other keys are
		// unaffected because se goes to P's tail region only if its key is
		// ≤ the smallest key in Q at that position.
	} else {
		insertStabEntry(newData, loc.idx-mid, moved, se)
		t.lastInsertPage = newID
	}
	if err := t.w.Unpin(newID, true); err != nil {
		t.w.Unpin(loc.page, true)
		return err
	}
	return t.w.Unpin(loc.page, true)
}

// popPSLHead removes and returns the head entry of PSL(j) of the pinned
// node, updating the directory and (ps, pe). PSL(j) must be non-empty.
func (t *Tree) popPSLHead(node []byte, j int) (stabEntry, error) {
	p := keyPSLPage(node, j)
	if p == pagefile.InvalidPage {
		return stabEntry{}, fmt.Errorf("%w: popPSLHead of empty PSL", ErrCorrupt)
	}
	kv := intShape.Key(node, j)
	data, err := t.fetchStab(p)
	if err != nil {
		return stabEntry{}, err
	}
	n := stabCount(data)
	idx := -1
	for i := 0; i < n; i++ {
		if stabEntryAt(data, i).key == kv {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.w.Unpin(p, false)
		return stabEntry{}, fmt.Errorf("%w: PSL head for key %d missing on page %d", ErrCorrupt, kv, p)
	}
	head := stabEntryAt(data, idx)
	succ, err := t.removeAt(node, p, data, idx)
	if err != nil {
		return stabEntry{}, err
	}
	if err := t.refreshHeadFromSucc(node, j, succ); err != nil {
		return stabEntry{}, err
	}
	t.stabCount.Add(-1)
	return head, nil
}

// removeAt deletes the entry at index idx of the pinned-by-us stab page
// (page id p, data already fetched), consuming the pin and unlinking the
// page if it becomes empty. It returns the location of the entry that now
// follows the removed one in the chain (page == InvalidPage when the
// removed entry was the chain's last).
func (t *Tree) removeAt(node []byte, p pagefile.PageID, data []byte, idx int) (stabLoc, error) {
	n := stabCount(data)
	removeStabEntry(data, idx, n)
	if n-1 > 0 {
		succ := stabLoc{page: p, idx: idx}
		if idx >= n-1 {
			succ = stabLoc{page: stabNext(data), idx: 0}
		}
		return succ, t.w.Unpin(p, true)
	}
	// Page empty: unlink and free it.
	prev, next := stabPrev(data), stabNext(data)
	if prev != pagefile.InvalidPage {
		pd, err := t.fetchStab(prev)
		if err != nil {
			t.w.Unpin(p, true)
			return stabLoc{}, err
		}
		setStabNext(pd, next)
		if err := t.w.Unpin(prev, true); err != nil {
			t.w.Unpin(p, true)
			return stabLoc{}, err
		}
	} else {
		setStabHead(node, next)
	}
	if next != pagefile.InvalidPage {
		nd, err := t.fetchStab(next)
		if err != nil {
			t.w.Unpin(p, true)
			return stabLoc{}, err
		}
		setStabPrev(nd, prev)
		if err := t.w.Unpin(next, true); err != nil {
			t.w.Unpin(p, true)
			return stabLoc{}, err
		}
	} else {
		setStabTail(node, prev)
	}
	t.stabPages.Add(-1)
	return stabLoc{page: next, idx: 0}, t.w.Discard(p)
}

// refreshHeadFromSucc updates (ps, pe) and the head pointer of key j after
// its old head entry was removed: the new head, if any, is exactly the
// chain successor of the removed entry (the PSL is a contiguous sorted
// run), so a single page look suffices — matching the C_SD ≤ 2–3 I/O claim
// of §4.3.
func (t *Tree) refreshHeadFromSucc(node []byte, j int, succ stabLoc) error {
	if succ.page == pagefile.InvalidPage {
		t.clearPSL(node, j)
		return nil
	}
	kv := intShape.Key(node, j)
	data, err := t.fetchStab(succ.page)
	if err != nil {
		return err
	}
	if succ.idx >= stabCount(data) {
		// Successor was the first entry of the next page but that page is
		// exhausted too — only possible when succ.idx is 0 on an empty
		// page, which unlink prevents; treat defensively as no successor.
		t.w.Unpin(succ.page, false)
		t.clearPSL(node, j)
		return nil
	}
	en := stabEntryAt(data, succ.idx)
	if en.key == kv {
		setKeyPSPE(node, j, en.start, en.end)
		setKeyPSLPage(node, j, succ.page)
	} else {
		t.clearPSL(node, j)
	}
	return t.w.Unpin(succ.page, false)
}

func (t *Tree) clearPSL(node []byte, j int) {
	setKeyPSPE(node, j, 0, 0)
	setKeyPSLPage(node, j, pagefile.InvalidPage)
}

// stabDeleteElement removes the entry for element (s, e) from the pinned
// node's stab list if present, returning whether it was found.
func (t *Tree) stabDeleteElement(node []byte, s, e uint32) (bool, error) {
	j := primaryKeyIndex(node, s, e)
	if j < 0 {
		return false, nil
	}
	kv := intShape.Key(node, j)
	p := keyPSLPage(node, j)
	if p == pagefile.InvalidPage {
		return false, nil
	}
	// Walk PSL(j) looking for start == s.
	for p != pagefile.InvalidPage {
		data, err := t.fetchStab(p)
		if err != nil {
			return false, err
		}
		n := stabCount(data)
		advance := pagefile.InvalidPage
		for i := 0; i < n; i++ {
			en := stabEntryAt(data, i)
			if en.key > kv || (en.key == kv && en.start > s) {
				// Passed the position: not present.
				return false, t.w.Unpin(p, false)
			}
			if en.key == kv && en.start == s {
				wasHead := keyPS(node, j) == s
				succ, err := t.removeAt(node, p, data, i)
				if err != nil {
					return false, err
				}
				if wasHead {
					if err := t.refreshHeadFromSucc(node, j, succ); err != nil {
						return false, err
					}
				}
				t.stabCount.Add(-1)
				return true, nil
			}
		}
		advance = stabNext(data)
		if err := t.w.Unpin(p, false); err != nil {
			return false, err
		}
		p = advance
	}
	return false, nil
}

// extractPSL removes and returns every entry of PSL(j) of the pinned node,
// in (outermost-first) order.
func (t *Tree) extractPSL(node []byte, j int) ([]stabEntry, error) {
	var out []stabEntry
	for keyPSLPage(node, j) != pagefile.InvalidPage {
		se, err := t.popPSLHead(node, j)
		if err != nil {
			return out, err
		}
		out = append(out, se)
	}
	return out, nil
}

// extractStabbedBy removes and returns every entry of the pinned node's
// stab list that is stabbed by position k. By strict nesting the stabbed
// entries of each PSL form a prefix, and the in-entry (ps, pe) fields prove
// in advance whether a PSL has any match, so PSLs without matches cost no
// page accesses — the StabSet' extraction of Figure 5(b).
func (t *Tree) extractStabbedBy(node []byte, k uint32) ([]stabEntry, error) {
	var out []stabEntry
	m := intShape.Count(node)
	for c := 0; c < m; c++ {
		for {
			ps := keyPS(node, c)
			if ps == 0 || !(ps <= k && k <= keyPE(node, c)) {
				break
			}
			se, err := t.popPSLHead(node, c)
			if err != nil {
				return out, err
			}
			out = append(out, se)
		}
	}
	return out, nil
}

// stabReinsertAll inserts the given entries into the pinned node's stab
// list, recomputing each entry's primary key within this node. Entries not
// stabbed by any key of the node are returned as rejects.
func (t *Tree) stabReinsertAll(node []byte, entries []stabEntry) ([]stabEntry, error) {
	var rejects []stabEntry
	for _, se := range entries {
		if primaryKeyIndex(node, se.start, se.end) < 0 {
			rejects = append(rejects, se)
			continue
		}
		if err := t.stabInsertElement(node, se.element(t.DocID())); err != nil {
			return rejects, err
		}
	}
	return rejects, nil
}

// rekeyStabbedPrefix restores the primary-key grouping (Definition 2) after
// key li was inserted into — or increased in — the pinned node: entries of
// the successor key's PSL that are stabbed by key li now have key li as
// their smallest stabbing key and must move into PSL(key li). By strict
// nesting the affected entries are a prefix of the successor's PSL, and the
// (ps, pe) guard makes the call free when nothing is affected.
func (t *Tree) rekeyStabbedPrefix(node []byte, li int) error {
	m := intShape.Count(node)
	if li+1 >= m {
		return nil
	}
	k := intShape.Key(node, li)
	var moved []stabEntry
	for {
		ps := keyPS(node, li+1)
		if ps == 0 || !(ps <= k && k <= keyPE(node, li+1)) {
			break
		}
		se, err := t.popPSLHead(node, li+1)
		if err != nil {
			return err
		}
		moved = append(moved, se)
	}
	for _, se := range moved {
		if err := t.stabInsertElement(node, se.element(t.DocID())); err != nil {
			return err
		}
	}
	return nil
}

// splitStabChain partitions the pinned left node's stab chain around
// midKey: entries with key < midKey stay with left, entries with key >
// midKey move to the pinned right node's chain. Entries with key == midKey
// must have been extracted beforehand. The right node's key entries must
// already be populated (with directory pointers copied from the left node,
// which remain valid page ids and are fixed up here when the boundary page
// is split).
func (t *Tree) splitStabChain(left, right []byte, midKey uint32) error {
	setStabHead(right, pagefile.InvalidPage)
	setStabTail(right, pagefile.InvalidPage)
	// Locate the first right-hand entry via the right node's directory: the
	// first key with a non-empty PSL owns the first entry with key > midKey.
	rm := intShape.Count(right)
	firstRight := -1
	for i := 0; i < rm; i++ {
		if keyPSLPage(right, i) != pagefile.InvalidPage {
			firstRight = i
			break
		}
	}
	if firstRight < 0 {
		return nil // nothing moves; left keeps the whole chain
	}
	bID := keyPSLPage(right, firstRight)
	bData, err := t.fetchStab(bID)
	if err != nil {
		return err
	}
	n := stabCount(bData)
	idx := 0
	for idx < n && stabEntryAt(bData, idx).key <= midKey {
		idx++
	}
	oldTail := stabTail(left)

	if idx == 0 {
		// Clean split between pages: B and everything after belong to right.
		prev := stabPrev(bData)
		setStabPrev(bData, pagefile.InvalidPage)
		if err := t.w.Unpin(bID, true); err != nil {
			return err
		}
		if prev != pagefile.InvalidPage {
			pd, err := t.fetchStab(prev)
			if err != nil {
				return err
			}
			setStabNext(pd, pagefile.InvalidPage)
			if err := t.w.Unpin(prev, true); err != nil {
				return err
			}
			setStabTail(left, prev)
		} else {
			setStabHead(left, pagefile.InvalidPage)
			setStabTail(left, pagefile.InvalidPage)
		}
		setStabHead(right, bID)
		setStabTail(right, oldTail)
		return nil
	}

	if idx == n {
		// All of B stays left; right's chain starts at B.next. (Possible
		// when the directory pointed at a page whose right-key heads sit on
		// a later page — cannot happen for a head pointer, but guard.)
		next := stabNext(bData)
		setStabNext(bData, pagefile.InvalidPage)
		if err := t.w.Unpin(bID, true); err != nil {
			return err
		}
		if next == pagefile.InvalidPage {
			return nil
		}
		nd, err := t.fetchStab(next)
		if err != nil {
			return err
		}
		setStabPrev(nd, pagefile.InvalidPage)
		if err := t.w.Unpin(next, true); err != nil {
			return err
		}
		setStabTail(left, bID)
		setStabHead(right, next)
		setStabTail(right, oldTail)
		return nil
	}

	// Mixed page: move the suffix B[idx:] to a fresh page that becomes the
	// right chain's head. Only the page holding the split point is touched,
	// as §4.1 observes (Figure 5(a)).
	qID, qData, err := t.w.FetchNew()
	if err != nil {
		t.w.Unpin(bID, false)
		return err
	}
	initStabPage(qData)
	moved := n - idx
	copy(qData[stabHeader:stabHeader+moved*stabEntrySize],
		bData[stabHeader+idx*stabEntrySize:stabHeader+n*stabEntrySize])
	setStabCount(qData, moved)
	setStabCount(bData, idx)
	t.stabPages.Add(1)

	oldNext := stabNext(bData)
	setStabNext(bData, pagefile.InvalidPage)
	setStabNext(qData, oldNext)
	setStabPrev(qData, pagefile.InvalidPage)
	if oldNext != pagefile.InvalidPage {
		nd, err := t.fetchStab(oldNext)
		if err != nil {
			t.w.Unpin(qID, true)
			t.w.Unpin(bID, true)
			return err
		}
		setStabPrev(nd, qID)
		if err := t.w.Unpin(oldNext, true); err != nil {
			t.w.Unpin(qID, true)
			t.w.Unpin(bID, true)
			return err
		}
	}
	if err := t.w.Unpin(qID, true); err != nil {
		t.w.Unpin(bID, true)
		return err
	}
	if err := t.w.Unpin(bID, true); err != nil {
		return err
	}

	setStabTail(left, bID)
	setStabHead(right, qID)
	if oldTail == bID {
		setStabTail(right, qID)
	} else {
		setStabTail(right, oldTail)
	}
	// Fix right-node directory entries that pointed at B: their heads are
	// in the moved suffix.
	for i := 0; i < rm; i++ {
		if keyPSLPage(right, i) == bID {
			setKeyPSLPage(right, i, qID)
		}
	}
	return nil
}

// mergeStabChains appends the right node's chain to the left node's chain.
// Directory pointers inside the right node's key entries remain valid; the
// caller copies those entries into the merged node afterwards.
func (t *Tree) mergeStabChains(left, right []byte) error {
	rHead := stabHead(right)
	if rHead == pagefile.InvalidPage {
		return nil
	}
	lTail := stabTail(left)
	if lTail == pagefile.InvalidPage {
		setStabHead(left, rHead)
		setStabTail(left, stabTail(right))
		return nil
	}
	td, err := t.fetchStab(lTail)
	if err != nil {
		return err
	}
	setStabNext(td, rHead)
	if err := t.w.Unpin(lTail, true); err != nil {
		return err
	}
	hd, err := t.fetchStab(rHead)
	if err != nil {
		return err
	}
	setStabPrev(hd, lTail)
	if err := t.w.Unpin(rHead, true); err != nil {
		return err
	}
	setStabTail(left, stabTail(right))
	return nil
}

// stabEntriesAll returns every entry of the pinned node's stab list in
// chain order (used by the invariant checker and tests).
func (t *Tree) stabEntriesAll(node []byte) ([]stabEntry, error) {
	var out []stabEntry
	p := stabHead(node)
	for p != pagefile.InvalidPage {
		data, err := t.fetchStab(p)
		if err != nil {
			return nil, err
		}
		n := stabCount(data)
		for i := 0; i < n; i++ {
			out = append(out, stabEntryAt(data, i))
		}
		next := stabNext(data)
		if err := t.w.Unpin(p, false); err != nil {
			return nil, err
		}
		p = next
	}
	return out, nil
}
