package blink

import (
	"fmt"

	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// Insert adds e to the tree. Its start must be unique within the indexed
// set (region starts of distinct elements are distinct by construction):
// a duplicate start returns the owner's ErrDuplicate and leaves the tree
// as it was. The element must belong to the tree's document and have a
// non-empty region.
//
// Insert runs under the writer latch in one WAL transaction. It descends
// from the root, splitting full pages on the way back up and growing the
// tree when the root splits. The writer's descent reads pages without
// latching — writers are serialized and readers only copy — and latches a
// page exclusively for each mutation. A split follows the B-link order:
// the new right page is populated while unreachable, one latched write
// shrinks the left page and installs its right link and high key, and the
// parent learns of the split last; a reader racing that update moves
// right.
func (t *Tree) Insert(e xmldoc.Element) (err error) {
	if err := t.valid(e); err != nil {
		return err
	}
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	defer t.done(&err)
	defer t.debugPinBalance()()
	commit := t.beginTx()
	defer commit(&err)
	if err := t.insert(e); err != nil {
		return err
	}
	t.count.Add(1)
	return t.syncMeta()
}

// insert is Insert's descent and root growth (I4).
func (t *Tree) insert(e xmldoc.Element) error {
	root, h := t.Root()
	key, child, err := t.insertInto(root, h, e, false)
	if err != nil || child == pagefile.InvalidPage {
		return err
	}
	// The root split: grow the tree (I4). The new root is unreachable until
	// SetRoot publishes it, so it is built without a latch; readers still
	// descending from the old root reach the new right half by its link.
	id, d, err := t.fetchNew()
	if err != nil {
		return err
	}
	t.shape.Init(d)
	t.shape.SetChild(d, 0, root)
	t.shape.InsertEntry(d, 0, 0, key, child)
	if t.hooks != nil {
		if err := t.hooks.GrowRoot(d); err != nil {
			t.unpin(id, true)
			return err
		}
	}
	if err := t.unpin(id, true); err != nil {
		return err
	}
	t.SetRoot(id, h+1)
	return nil
}

// insertInto inserts e under page id at the given height (1 = leaf); homed
// reports whether e already joined a stab list higher up. On a split it
// returns the separator and the new right page. When the insert fails
// below the node that homed e, that node unhomes it again, so a rejected
// element leaves no stab entry behind.
func (t *Tree) insertInto(id pagefile.PageID, height int, e xmldoc.Element, homed bool) (uint32, pagefile.PageID, error) {
	d, err := t.fetch(id)
	if err != nil {
		return 0, pagefile.InvalidPage, err
	}
	if height == 1 {
		if !IsLeaf(d) {
			t.unpin(id, false)
			return 0, pagefile.InvalidPage, fmt.Errorf("%w: expected leaf at page %d", t.corrupt, id)
		}
		return t.insertLeaf(id, d, e, homed)
	}
	dirty := false
	// I1: home e in the highest node with a stabbing key.
	if !homed && t.hooks != nil && t.hooks.Stabs(d, e) {
		t.pl.Lock(id)
		err := t.hooks.Home(d, e)
		t.pl.Unlock(id)
		if err != nil {
			t.unpin(id, true)
			return 0, pagefile.InvalidPage, err
		}
		homed, dirty = true, true
	}
	ci := t.shape.Search(d, e.Start)
	key, child, err := t.insertInto(t.shape.Child(d, ci), height-1, e, homed)
	if err != nil && dirty {
		t.pl.Lock(id)
		_, uerr := t.hooks.Unhome(d, e)
		t.pl.Unlock(id)
		if uerr != nil {
			err = fmt.Errorf("%w (undoing its stab entry: %w)", err, uerr)
		}
	}
	if err != nil || child == pagefile.InvalidPage {
		if uerr := t.unpin(id, dirty); err == nil {
			err = uerr
		}
		return 0, pagefile.InvalidPage, err
	}
	return t.insertEntry(id, d, ci, key, child, dirty)
}

// insertLeaf inserts e into the pinned leaf id, splitting it when full,
// and consumes the pin. e's InStabList flag mirrors homed.
func (t *Tree) insertLeaf(id pagefile.PageID, d []byte, e xmldoc.Element, homed bool) (uint32, pagefile.PageID, error) {
	n := LeafCount(d)
	pos := LeafSearch(d, e.Start)
	if pos < n && LeafKey(d, pos) == e.Start {
		t.unpin(id, false)
		return 0, pagefile.InvalidPage, fmt.Errorf("%w: start %d", t.duplicate, e.Start)
	}
	var flags uint16
	if homed {
		flags = xmldoc.FlagInStabList
	}
	if n < t.leafCap {
		t.pl.Lock(id)
		InsertLeafEntry(d, pos, n, e, flags)
		t.pl.Unlock(id)
		return 0, pagefile.InvalidPage, t.unpin(id, true)
	}

	// Split: the upper half moves to a new right page, populated — entries,
	// chain links, inherited high key — while unreachable.
	rid, rd, err := t.fetchNew()
	if err != nil {
		t.unpin(id, false)
		return 0, pagefile.InvalidPage, err
	}
	InitLeaf(rd)
	mid := n / 2
	copy(rd[LeafHeader:], d[LeafHeader+mid*xmldoc.EncodedSize:LeafHeader+n*xmldoc.EncodedSize])
	SetLeafCount(rd, n-mid)
	oldNext := LeafNext(d)
	SetLeafNext(rd, oldNext)
	SetLeafPrev(rd, id)
	SetLeafHigh(rd, LeafHigh(d))

	// The one latched write that performs the split: shrink the left half,
	// place e, choose the separator, let the XR-tree collect StabSet', and
	// install the right link and high key — a reader sees the pre-split
	// page or a left half whose high key routes keys ≥ sep to the new page.
	// The right half is still private, so it rides inside the bracket.
	t.pl.Lock(id)
	SetLeafCount(d, mid)
	if e.Start < LeafKey(rd, 0) {
		InsertLeafEntry(d, pos, mid, e, flags)
	} else {
		InsertLeafEntry(rd, LeafSearch(rd, e.Start), n-mid, e, flags)
	}
	sep := t.sep(LeafKey(d, LeafCount(d)-1), LeafKey(rd, 0))
	if t.hooks != nil {
		t.hooks.SplitLeaf(d, rd, sep)
	}
	SetLeafNext(d, rid)
	SetLeafHigh(d, sep)
	t.pl.Unlock(id)

	if oldNext != pagefile.InvalidPage {
		if err := t.fixPrev(oldNext, rid); err != nil {
			t.unpin(rid, true)
			t.unpin(id, true)
			return 0, pagefile.InvalidPage, err
		}
	}
	if err := t.unpin(rid, true); err != nil {
		t.unpin(id, true)
		return 0, pagefile.InvalidPage, err
	}
	return sep, rid, t.unpin(id, true)
}

// insertEntry adds (key, child) as key ci of the pinned internal node id —
// a child split's separator — splitting the node when full, and consumes
// the pin (dirty if the descent changed the node).
func (t *Tree) insertEntry(id pagefile.PageID, d []byte, ci int, key uint32, child pagefile.PageID, dirty bool) (uint32, pagefile.PageID, error) {
	s := t.shape
	m := s.Count(d)
	if m < t.intCap {
		t.pl.Lock(id)
		s.InsertEntry(d, ci, m, key, child)
		var err error
		if t.hooks != nil {
			err = t.hooks.Promoted(d, ci)
		}
		t.pl.Unlock(id)
		if err != nil {
			t.unpin(id, true)
			return 0, pagefile.InvalidPage, err
		}
		return 0, pagefile.InvalidPage, t.unpin(id, true)
	}

	// Split: gather the m+1 raw entries with the new one in place (reads
	// only, no latch yet) and lay them out over both halves.
	w := s.EntrySize
	all := make([]byte, (m+1)*w)
	copy(all, d[s.Header:s.Header+ci*w])
	copy(all[(ci+1)*w:], d[s.Header+ci*w:s.Header+m*w])
	fresh(all[ci*w:(ci+1)*w], key, child)
	rid, rd, err := t.fetchNew()
	if err != nil {
		t.unpin(id, dirty)
		return 0, pagefile.InvalidPage, err
	}
	s.Init(rd)
	// The node's latch covers the whole split, stab-chain moves included.
	t.pl.Lock(id)
	midKey, err := t.splitNode(d, rid, rd, all, key)
	t.pl.Unlock(id)
	if err != nil {
		t.unpin(rid, true)
		t.unpin(id, true)
		return 0, pagefile.InvalidPage, err
	}
	if err := t.unpin(rid, true); err != nil {
		t.unpin(id, true)
		return 0, pagefile.InvalidPage, err
	}
	return midKey, rid, t.unpin(id, true)
}

// splitNode lays the gathered entries of a full node out over d, which
// keeps the lower half, and the fresh right page rd (page rid), between
// the stab hooks; the middle key rises and is returned. key is the child
// separator being inserted. Called with d's latch held.
func (t *Tree) splitNode(d []byte, rid pagefile.PageID, rd, all []byte, key uint32) (uint32, error) {
	s, w := t.shape, t.shape.EntrySize
	mid := len(all) / w / 2
	midKey := le.Uint32(all[mid*w:])
	if t.hooks != nil {
		if err := t.hooks.PreSplit(d, midKey); err != nil {
			return 0, err
		}
	}
	s.SetCount(rd, len(all)/w-mid-1)
	s.SetChild(rd, 0, pagefile.PageID(le.Uint32(all[mid*w+4:])))
	copy(rd[s.Header:], all[(mid+1)*w:])
	s.SetNext(rd, s.Next(d))
	s.SetHigh(rd, s.High(d))
	s.SetCount(d, mid)
	copy(d[s.Header:], all[:mid*w])
	s.SetNext(d, rid)
	s.SetHigh(d, midKey)
	if t.hooks != nil {
		return midKey, t.hooks.PostSplit(d, rd, midKey, key)
	}
	return midKey, nil
}
