package btree

import (
	"fmt"

	"xrtree/internal/blink"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// Insert adds e to the tree. The start position must be unique within the
// indexed set (region starts of distinct elements are distinct by
// construction); inserting a duplicate start returns ErrDuplicate.
//
// Writers serialize on wlatch but never block readers tree-wide: every
// mutation of a reader-reachable page happens under that page's exclusive
// latch, and structural changes follow the B-link split order (populate
// the new right sibling while it is unreachable, then shrink the left
// page and install its right link in one latched write, then update the
// parent — readers that race the parent update recover by moving right).
func (t *Tree) Insert(e xmldoc.Element) (err error) {
	if e.DocID != t.DocID() {
		return fmt.Errorf("btree: insert of DocID %d into tree for DocID %d", e.DocID, t.DocID())
	}
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	defer t.debugPinBalance()()
	commit := t.beginTx()
	defer commit(&err)
	root, h := t.Root()
	promoKey, promoChild, err := t.insertInto(root, h, e)
	if err != nil {
		return err
	}
	if promoChild != pagefile.InvalidPage {
		// Root split: grow the tree. The new root is unreachable until
		// SetRoot publishes it, so it needs no latch while being built;
		// readers still descending from the old root reach the new right
		// half through its right link.
		newRootID, data, err := t.fetchNew()
		if err != nil {
			return err
		}
		intShape.Init(data)
		intShape.SetCount(data, 1)
		intShape.SetChild(data, 0, root)
		intShape.SetKey(data, 0, promoKey)
		intShape.SetChild(data, 1, promoChild)
		if err := t.unpin(newRootID, true); err != nil {
			return err
		}
		t.SetRoot(newRootID, h+1)
	}
	t.count.Add(1)
	return t.syncMeta()
}

// insertInto inserts e under page id at the given height (1 = leaf).
// On split it returns the separator key and the new right sibling.
// The writer's descent reads pages without latching: writers are
// serialized, so no one else mutates pages, and concurrent readers only
// copy them.
func (t *Tree) insertInto(id pagefile.PageID, height int, e xmldoc.Element) (uint32, pagefile.PageID, error) {
	data, err := t.fetch(id)
	if err != nil {
		return 0, pagefile.InvalidPage, err
	}
	if height == 1 {
		if !blink.IsLeaf(data) {
			t.unpin(id, false)
			return 0, pagefile.InvalidPage, fmt.Errorf("%w: expected leaf at page %d", ErrCorrupt, id)
		}
		return t.insertLeaf(id, data, e)
	}
	ci := intShape.Search(data, e.Start)
	child := intShape.Child(data, ci)
	t.countNode()
	// Unpin before recursing to keep at most O(1) pins per level... we must
	// re-fetch after the child returns a promotion. Simpler and safe: hold
	// the pin across recursion (pool capacity must exceed tree height).
	promoKey, promoChild, err := t.insertInto(child, height-1, e)
	if err != nil {
		t.unpin(id, false)
		return 0, pagefile.InvalidPage, err
	}
	if promoChild == pagefile.InvalidPage {
		return 0, pagefile.InvalidPage, t.unpin(id, false)
	}
	return t.insertInternalEntry(id, data, ci, promoKey, promoChild)
}

// insertLeaf inserts e into a pinned leaf page, splitting on overflow.
// It consumes the pin.
func (t *Tree) insertLeaf(id pagefile.PageID, data []byte, e xmldoc.Element) (uint32, pagefile.PageID, error) {
	t.countLeaf()
	n := blink.LeafCount(data)
	pos := blink.LeafSearch(data, e.Start)
	if pos < n && blink.LeafKey(data, pos) == e.Start {
		t.unpin(id, false)
		return 0, pagefile.InvalidPage, fmt.Errorf("%w: start %d", ErrDuplicate, e.Start)
	}
	if n < t.leafCap {
		t.pl.Lock(id)
		blink.InsertLeafEntry(data, pos, n, e, 0)
		t.pl.Unlock(id)
		return 0, pagefile.InvalidPage, t.unpin(id, true)
	}

	// Split: move the upper half to a new right sibling. The new page is
	// unreachable until the left page's right link is installed, so it is
	// populated completely — entries, chain pointers, high key, and e if e
	// belongs in it — without a latch.
	newID, newData, err := t.fetchNew()
	if err != nil {
		t.unpin(id, false)
		return 0, pagefile.InvalidPage, err
	}
	blink.InitLeaf(newData)
	mid := n / 2
	moved := n - mid
	copy(newData[blink.LeafHeader:], data[blink.LeafHeader+mid*xmldoc.EncodedSize:blink.LeafHeader+n*xmldoc.EncodedSize])
	blink.SetLeafCount(newData, moved)
	oldNext := blink.LeafNext(data)
	blink.SetLeafNext(newData, oldNext)
	blink.SetLeafPrev(newData, id)
	blink.SetLeafHigh(newData, blink.LeafHigh(data))
	sep := blink.LeafKey(newData, 0)
	if e.Start >= sep {
		npos := blink.LeafSearch(newData, e.Start)
		blink.InsertLeafEntry(newData, npos, moved, e, 0)
	}

	// The one latched write that performs the split: shrink the left page,
	// add e to it if it sorts left, and install the right link and high
	// key together. A reader sees either the full pre-split page or a left
	// half whose high key routes keys ≥ sep through the new right link.
	t.pl.Lock(id)
	blink.SetLeafCount(data, mid)
	if e.Start < sep {
		blink.InsertLeafEntry(data, pos, mid, e, 0)
	}
	blink.SetLeafNext(data, newID)
	blink.SetLeafHigh(data, sep)
	t.pl.Unlock(id)

	// Fix the old right neighbor's back pointer (scans only follow next,
	// so this can be its own latched write after the split is visible).
	if oldNext != pagefile.InvalidPage {
		nd, err := t.fetch(oldNext)
		if err == nil {
			t.pl.Lock(oldNext)
			blink.SetLeafPrev(nd, newID)
			t.pl.Unlock(oldNext)
			err = t.unpin(oldNext, true)
		}
		if err != nil {
			t.unpin(newID, true)
			t.unpin(id, true)
			return 0, pagefile.InvalidPage, err
		}
	}
	if err := t.unpin(newID, true); err != nil {
		return 0, pagefile.InvalidPage, err
	}
	if err := t.unpin(id, true); err != nil {
		return 0, pagefile.InvalidPage, err
	}
	return sep, newID, nil
}

// insertInternalEntry inserts (key, child) after child index ci in a pinned
// internal page, splitting on overflow. It consumes the pin.
func (t *Tree) insertInternalEntry(id pagefile.PageID, data []byte, ci int, key uint32, child pagefile.PageID) (uint32, pagefile.PageID, error) {
	m := intShape.Count(data)
	if m < t.intCap {
		t.pl.Lock(id)
		intShape.InsertEntry(data, ci, m, key, child)
		t.pl.Unlock(id)
		return 0, pagefile.InvalidPage, t.unpin(id, true)
	}

	// Split the internal node. Gather the m+1 entries logically, find the
	// middle separator to promote, and distribute.
	keys := make([]uint32, 0, m+1)
	childs := make([]pagefile.PageID, 0, m+2)
	childs = append(childs, intShape.Child(data, 0))
	for i := 0; i < m; i++ {
		keys = append(keys, intShape.Key(data, i))
		childs = append(childs, intShape.Child(data, i+1))
	}
	// Insert the new entry at position ci.
	keys = append(keys[:ci], append([]uint32{key}, keys[ci:]...)...)
	childs = append(childs[:ci+1], append([]pagefile.PageID{child}, childs[ci+1:]...)...)

	total := m + 1
	mid := total / 2 // keys[mid] is promoted
	promoted := keys[mid]

	// Populate the new right node while unreachable (as in insertLeaf).
	newID, newData, err := t.fetchNew()
	if err != nil {
		t.unpin(id, false)
		return 0, pagefile.InvalidPage, err
	}
	intShape.Init(newData)
	rightKeys := keys[mid+1:]
	intShape.SetCount(newData, len(rightKeys))
	intShape.SetChild(newData, 0, childs[mid+1])
	for i, k := range rightKeys {
		intShape.SetKey(newData, i, k)
		intShape.SetChild(newData, i+1, childs[mid+2+i])
	}
	intShape.SetNext(newData, intShape.Next(data))
	intShape.SetHigh(newData, intShape.High(data))

	// Latched split write: left node keeps keys[0:mid], children[0:mid+1];
	// the promoted key becomes its high key and the right link points at
	// the new node.
	t.pl.Lock(id)
	intShape.SetCount(data, mid)
	intShape.SetChild(data, 0, childs[0])
	for i := 0; i < mid; i++ {
		intShape.SetKey(data, i, keys[i])
		intShape.SetChild(data, i+1, childs[i+1])
	}
	intShape.SetNext(data, newID)
	intShape.SetHigh(data, promoted)
	t.pl.Unlock(id)

	if err := t.unpin(newID, true); err != nil {
		return 0, pagefile.InvalidPage, err
	}
	if err := t.unpin(id, true); err != nil {
		return 0, pagefile.InvalidPage, err
	}
	return promoted, newID, nil
}

// BulkLoad builds the tree from a start-sorted element slice, packing
// leaves to a fill factor and building internal levels bottom-up. The tree
// must be empty. fill is the target leaf occupancy in (0,1]; 0 means 1.0
// (fully packed, which is what the read-only join experiments use).
func (t *Tree) BulkLoad(es []xmldoc.Element, fill float64) error {
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	defer t.debugPinBalance()()
	// Unlogged bulk construction; durability comes from the store's save.
	t.pool.BeginUnlogged()
	defer t.pool.EndUnlogged()
	if n := t.count.Load(); n != 0 {
		return fmt.Errorf("btree: BulkLoad into non-empty tree (%d elements)", n)
	}
	if len(es) == 0 {
		return nil
	}
	if fill <= 0 || fill > 1 {
		fill = 1.0
	}
	perLeaf := int(float64(t.leafCap) * fill)
	if perLeaf < 1 {
		perLeaf = 1
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].Start >= es[i].Start {
			return fmt.Errorf("btree: BulkLoad input not sorted at %d", i)
		}
	}

	// Build the leaf level, reusing the existing (empty) root as first
	// leaf. That page — and everything the leaf chain reaches from it — is
	// visible to concurrent readers, so mutations of already-linked pages
	// are latched; a fresh page is filled unlatched and only then linked.
	root, _ := t.Root()
	type levelEntry struct {
		firstKey uint32
		id       pagefile.PageID
	}
	var level []levelEntry
	var prevID pagefile.PageID
	var prevData []byte
	for off := 0; off < len(es); off += perLeaf {
		n := len(es) - off
		if n > perLeaf {
			n = perLeaf
		}
		var id pagefile.PageID
		var data []byte
		var err error
		if off == 0 {
			id = root
			data, err = t.fetch(id)
		} else {
			id, data, err = t.fetchNew()
		}
		if err != nil {
			return err
		}
		fillPage := func() {
			blink.InitLeaf(data)
			for i := 0; i < n; i++ {
				es[off+i].Encode(blink.LeafEntry(data, i), 0)
			}
			blink.SetLeafCount(data, n)
		}
		if off == 0 {
			t.pl.Lock(id)
			fillPage()
			t.pl.Unlock(id)
		} else {
			fillPage()
			blink.SetLeafPrev(data, prevID)
		}
		if prevData != nil {
			t.pl.Lock(prevID)
			blink.SetLeafNext(prevData, id)
			blink.SetLeafHigh(prevData, es[off].Start)
			t.pl.Unlock(prevID)
			if err := t.unpin(prevID, true); err != nil {
				return err
			}
		}
		level = append(level, levelEntry{firstKey: es[off].Start, id: id})
		prevID, prevData = id, data
	}
	if err := t.unpin(prevID, true); err != nil {
		return err
	}

	// Build internal levels until one node remains. These pages are
	// unreachable until SetRoot publishes the top one, so they are built
	// unlatched; the previous node stays pinned so its right link and high
	// key can be set once its right neighbor exists.
	height := 1
	perInt := int(float64(t.intCap) * fill)
	if perInt < 2 {
		perInt = 2
	}
	for len(level) > 1 {
		var next []levelEntry
		prevID = pagefile.InvalidPage
		prevData = nil
		for off := 0; off < len(level); {
			n := len(level) - off
			if n > perInt+1 {
				n = perInt + 1
			}
			// A node with n children has n-1 keys; avoid leaving a
			// dangling single-child node at the end.
			if rem := len(level) - off - n; rem == 1 {
				n--
			}
			id, data, err := t.fetchNew()
			if err != nil {
				return err
			}
			intShape.Init(data)
			intShape.SetChild(data, 0, level[off].id)
			for i := 1; i < n; i++ {
				intShape.SetKey(data, i-1, level[off+i].firstKey)
				intShape.SetChild(data, i, level[off+i].id)
			}
			intShape.SetCount(data, n-1)
			if prevData != nil {
				intShape.SetNext(prevData, id)
				intShape.SetHigh(prevData, level[off].firstKey)
				if err := t.unpin(prevID, true); err != nil {
					return err
				}
			}
			next = append(next, levelEntry{firstKey: level[off].firstKey, id: id})
			prevID, prevData = id, data
			off += n
		}
		if err := t.unpin(prevID, true); err != nil {
			return err
		}
		level = next
		height++
	}
	t.SetRoot(level[0].id, height)
	t.count.Store(int64(len(es)))
	return t.syncMeta()
}
