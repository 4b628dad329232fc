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
//
// Each chain job has one helper: walkChain walks the pages pinned, relink
// edits a neighbour's link, stabLowerBound positions (key, start) within
// a page, and moveSuffix splits a page's tail onto a fresh page. Only the
// reader's scanPSL (query.go) walks a chain on its own: it fetches
// through the pool, never the writer's transaction.

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

// walkChain pins the stab pages from p on in chain order, checking each
// one's type, and hands each to visit until visit stops at one. It unpins
// every page visit passes over, and the page in hand on an error; the page
// visit stopped at comes back pinned, for the caller to edit or unpin. At
// the chain's end it returns InvalidPage.
func (t *Tree) walkChain(p pagefile.PageID, visit func(id pagefile.PageID, data []byte) (stop bool, err error)) (pagefile.PageID, []byte, error) {
	for p != pagefile.InvalidPage {
		data, err := t.fetchStab(p)
		if err != nil {
			return pagefile.InvalidPage, nil, err
		}
		stop, err := visit(p, data)
		if err == nil && stop {
			return p, data, nil
		}
		next := stabNext(data)
		if uerr := t.w.Unpin(p, false); err == nil {
			err = uerr
		}
		if err != nil {
			return pagefile.InvalidPage, nil, err
		}
		p = next
	}
	return pagefile.InvalidPage, nil, nil
}

// relink points one link of stab page id at to: set is setStabNext or
// setStabPrev.
func (t *Tree) relink(id pagefile.PageID, set func([]byte, pagefile.PageID), to pagefile.PageID) error {
	data, err := t.fetchStab(id)
	if err != nil {
		return err
	}
	set(data, to)
	return t.w.Unpin(id, true)
}

// stabLowerBound returns the index of the first entry on the page with
// (key, start) ≥ (kv, start), by binary search.
func stabLowerBound(data []byte, kv, start uint32) int {
	lo, hi := 0, stabCount(data)
	for lo < hi {
		mid := (lo + hi) / 2
		en := stabEntryAt(data, mid)
		if stabLess(en.key, en.start, kv, start) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// stabInsertElement inserts e into the stab list of the pinned internal
// node, keyed by its primary stabbing key. The caller must guarantee that
// at least one key of the node stabs e.
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
	at, err := t.insertAt(node, loc, se)
	if err != nil {
		return err
	}
	// Update the directory entry for key j if e is the new PSL head; a page
	// split inside insertAt may have moved it, so point at the page that
	// took it.
	if ps := keyPS(node, j); ps == 0 || e.Start < ps {
		setKeyPSPE(node, j, e.Start, e.End)
		setKeyPSLPage(node, j, at)
	}
	t.stabCount.Add(1)
	return nil
}

// findStabInsertPos returns the location at which a new entry for key index
// j must be inserted to keep the chain sorted by (key, start).
//
// The search starts at the head page of PSL(j), or when that is empty at
// the head page of the next non-empty PSL (the entry goes just before it),
// or else at the chain tail — the same ≤2-page guarantee the paper's ps
// directory gives.
func (t *Tree) findStabInsertPos(node []byte, j int, se stabEntry) (stabLoc, error) {
	p := pagefile.InvalidPage
	for nj := j; p == pagefile.InvalidPage && nj < intShape.Count(node); nj++ {
		p = keyPSLPage(node, nj)
	}
	if p == pagefile.InvalidPage {
		p = stabTail(node)
	}
	loc := stabLoc{page: p}
	at, _, err := t.walkChain(p, func(id pagefile.PageID, data []byte) (bool, error) {
		loc = stabLoc{page: id, idx: stabLowerBound(data, se.key, se.start)}
		return loc.idx < stabCount(data), nil
	})
	if err == nil && at != pagefile.InvalidPage {
		err = t.w.Unpin(at, false)
	}
	return loc, err
}

// insertAt physically inserts se at loc, allocating or splitting stab pages
// as needed and fixing any directory pointers whose PSL head moves. It
// returns the page that finally holds se.
func (t *Tree) insertAt(node []byte, loc stabLoc, se stabEntry) (pagefile.PageID, error) {
	if loc.page == pagefile.InvalidPage {
		// Empty chain: allocate the first page.
		id, data, err := t.w.FetchNew()
		if err != nil {
			return pagefile.InvalidPage, err
		}
		initStabPage(data)
		insertStabEntry(data, 0, 0, se)
		setStabHead(node, id)
		setStabTail(node, id)
		t.stabPages.Add(1)
		return id, t.w.Unpin(id, true)
	}

	data, err := t.fetchStab(loc.page)
	if err != nil {
		return pagefile.InvalidPage, err
	}
	n := stabCount(data)
	if n < t.stabCap {
		insertStabEntry(data, loc.idx, n, se)
		return loc.page, t.w.Unpin(loc.page, true)
	}

	// Page full: split it, keeping the first half in place.
	mid := n / 2
	q, qData, err := t.moveSuffix(loc.page, data, mid)
	if err != nil {
		t.w.Unpin(loc.page, true)
		return pagefile.InvalidPage, err
	}
	if stabNext(qData) == pagefile.InvalidPage {
		setStabTail(node, q)
	}

	// Fix directory pointers: any key whose value exceeds the last key left
	// in P had its PSL head move to Q (the chain is globally key-sorted, so
	// "key greater than P's new last key" ⟺ "first occurrence now in Q").
	lastP := stabEntryAt(data, mid-1).key
	prev := uint32(0)
	for i := range stabCount(qData) {
		k := stabEntryAt(qData, i).key
		if k != prev && k > lastP {
			if ki := keyIndex(node, k); ki >= 0 {
				setKeyPSLPage(node, ki, q)
			}
		}
		prev = k
	}

	// Insert into the proper half: inserting at index mid belongs to P's
	// end. The caller repoints se's own key at the page returned when se
	// is its new head.
	at := loc.page
	if loc.idx <= mid {
		insertStabEntry(data, loc.idx, mid, se)
	} else {
		insertStabEntry(qData, loc.idx-mid, n-mid, se)
		at = q
	}
	if err := t.w.Unpin(q, true); err != nil {
		t.w.Unpin(loc.page, true)
		return pagefile.InvalidPage, err
	}
	return at, t.w.Unpin(loc.page, true)
}

// moveSuffix moves the entries of the pinned stab page p from index from
// on to a fresh page q linked in after p, and returns q pinned.
func (t *Tree) moveSuffix(p pagefile.PageID, data []byte, from int) (pagefile.PageID, []byte, error) {
	q, qData, err := t.w.FetchNew()
	if err != nil {
		return pagefile.InvalidPage, nil, err
	}
	initStabPage(qData)
	n := stabCount(data)
	copy(qData[stabHeader:], data[stabHeader+from*stabEntrySize:stabHeader+n*stabEntrySize])
	setStabCount(qData, n-from)
	setStabCount(data, from)
	t.stabPages.Add(1)

	next := stabNext(data)
	setStabNext(qData, next)
	setStabPrev(qData, p)
	setStabNext(data, q)
	if next != pagefile.InvalidPage {
		if err := t.relink(next, setStabPrev, q); err != nil {
			t.w.Unpin(q, true)
			return pagefile.InvalidPage, nil, err
		}
	}
	return q, qData, nil
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
	idx := stabLowerBound(data, kv, 0)
	if idx == stabCount(data) || stabEntryAt(data, idx).key != kv {
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
	var err error
	if prev != pagefile.InvalidPage {
		err = t.relink(prev, setStabNext, next)
	} else {
		setStabHead(node, next)
	}
	if err == nil && next != pagefile.InvalidPage {
		err = t.relink(next, setStabPrev, prev)
	} else if err == nil {
		setStabTail(node, prev)
	}
	if err != nil {
		t.w.Unpin(p, true)
		return stabLoc{}, err
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
	// Walk PSL(j) to the first entry at or past (kv, s).
	idx := 0
	p, data, err := t.walkChain(keyPSLPage(node, j), func(_ pagefile.PageID, data []byte) (bool, error) {
		idx = stabLowerBound(data, kv, s)
		return idx < stabCount(data), nil
	})
	if err != nil || p == pagefile.InvalidPage {
		return false, err
	}
	if en := stabEntryAt(data, idx); en.key != kv || en.start != s {
		return false, t.w.Unpin(p, false) // passed the position: not present
	}
	wasHead := keyPS(node, j) == s
	succ, err := t.removeAt(node, p, data, idx)
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
	// first key with a non-empty PSL owns the first entry with key > midKey,
	// on its head page B.
	rm := intShape.Count(right)
	bID := pagefile.InvalidPage
	for i := 0; bID == pagefile.InvalidPage && i < rm; i++ {
		bID = keyPSLPage(right, i)
	}
	if bID == pagefile.InvalidPage {
		return nil // nothing moves; left keeps the whole chain
	}
	bData, err := t.fetchStab(bID)
	if err != nil {
		return err
	}
	idx := stabLowerBound(bData, midKey+1, 0)
	if idx == stabCount(bData) {
		t.w.Unpin(bID, false)
		return fmt.Errorf("%w: no stab entry past key %d on page %d", ErrCorrupt, midKey, bID)
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
			if err := t.relink(prev, setStabNext, pagefile.InvalidPage); err != nil {
				return err
			}
		} else {
			setStabHead(left, pagefile.InvalidPage)
		}
		setStabTail(left, prev)
		setStabHead(right, bID)
		setStabTail(right, oldTail)
		return nil
	}

	// Mixed page: move the suffix B[idx:] to a fresh page Q that becomes the
	// right chain's head. Only the page holding the split point is touched,
	// as §4.1 observes (Figure 5(a)).
	qID, qData, err := t.moveSuffix(bID, bData, idx)
	if err != nil {
		t.w.Unpin(bID, true)
		return err
	}
	setStabNext(bData, pagefile.InvalidPage)
	setStabPrev(qData, pagefile.InvalidPage)
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
		oldTail = qID
	}
	setStabTail(right, oldTail)
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
	} else {
		if err := t.relink(lTail, setStabNext, rHead); err != nil {
			return err
		}
		if err := t.relink(rHead, setStabPrev, lTail); err != nil {
			return err
		}
	}
	setStabTail(left, stabTail(right))
	return nil
}
