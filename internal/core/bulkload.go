package core

// Bulk loading builds the B+-tree backbone bottom-up at a chosen fill
// factor — the representation the read-only join experiments measure — and
// then homes every element in the stab list of the highest stabbing node,
// exactly the state repeated Insert calls would converge to.

import (
	"fmt"

	"xrtree/internal/blink"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// BulkLoad builds the tree from a start-sorted element slice. The tree must
// be empty. fill is the target page occupancy in (0,1]; 0 means fully
// packed.
func (t *Tree) BulkLoad(es []xmldoc.Element, fill float64) error {
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	defer t.endStabMove()
	defer t.debugPinBalance()()
	// Bulk construction is unlogged: its durability point is the store's
	// explicit save. The bracket keeps fuzzy WAL checkpoints from reading
	// half-built frames.
	t.pool.BeginUnlogged()
	defer t.pool.EndUnlogged()
	if n := t.count.Load(); n != 0 {
		return fmt.Errorf("xrtree: BulkLoad into non-empty tree (%d elements)", n)
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
			return fmt.Errorf("xrtree: BulkLoad input not sorted at %d", i)
		}
		if es[i].DocID != t.DocID() {
			return fmt.Errorf("xrtree: BulkLoad element %d has DocID %d, tree is %d", i, es[i].DocID, t.DocID())
		}
	}

	// Leaf level. Separators between adjacent leaves use the §3.2 key
	// choice so they stab as few elements as possible. The existing (empty)
	// root page is reused as the first leaf; that page — and everything the
	// chain reaches from it — is visible to concurrent readers, so
	// mutations of already-linked pages take their exclusive latch; a fresh
	// page is filled unlatched and only then linked.
	root, _ := t.Root()
	type levelEntry struct {
		sep uint32 // separator to the left of this child (unused for [0])
		id  pagefile.PageID
	}
	var level []levelEntry
	var prevID pagefile.PageID
	var prevData []byte
	var prevLast uint32
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
		sep := uint32(0)
		if off == 0 {
			t.pl.Lock(id)
			fillPage()
			t.pl.Unlock(id)
		} else {
			fillPage()
			sep = t.chooseSep(prevLast, es[off].Start)
			blink.SetLeafPrev(data, prevID)
		}
		if prevData != nil {
			t.pl.Lock(prevID)
			blink.SetLeafNext(prevData, id)
			blink.SetLeafHigh(prevData, sep)
			t.pl.Unlock(prevID)
			if err := t.unpin(prevID, true); err != nil {
				return err
			}
		}
		level = append(level, levelEntry{sep: sep, id: id})
		prevID, prevData = id, data
		prevLast = es[off+n-1].Start
	}
	if err := t.unpin(prevID, true); err != nil {
		return err
	}

	// Internal levels. These pages are unreachable until SetRoot publishes
	// the top one, so they are built unlatched; the previous node stays
	// pinned so its right link and high key can be set once its right
	// neighbor exists.
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
			if rem := len(level) - off - n; rem == 1 {
				n--
			}
			id, data, err := t.fetchNew()
			if err != nil {
				return err
			}
			initInternal(data)
			intShape.SetChild(data, 0, level[off].id)
			for i := 1; i < n; i++ {
				writeIntEntry(data, i-1, intEntryMem{
					key:   level[off+i].sep,
					child: level[off+i].id,
					psl:   pagefile.InvalidPage,
				})
			}
			intShape.SetCount(data, n-1)
			if prevData != nil {
				intShape.SetNext(prevData, id)
				intShape.SetHigh(prevData, level[off].sep)
				if err := t.unpin(prevID, true); err != nil {
					return err
				}
			}
			next = append(next, levelEntry{sep: level[off].sep, id: id})
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

	// Home every element: walk the start path from the root and stop at the
	// first (highest) node with a stabbing key. The tree is published, so
	// homing — flag raising plus chain inserts — is one long stab move.
	t.beginStabMove()
	for _, e := range es {
		if err := t.homeElement(e); err != nil {
			return err
		}
	}
	if err := t.syncMeta(); err != nil {
		return err
	}
	return t.debugPostMutation()
}

// homeElement inserts e into the stab list of the highest stabbing node on
// its start path, setting the leaf InStabList flag when it does. The leaf
// entry for e must already exist. The tree is already published, so every
// mutation happens under the page's exclusive latch.
func (t *Tree) homeElement(e xmldoc.Element) error {
	id, h := t.Root()
	homed := false
	for level := h; level > 1; level-- {
		data, err := t.fetch(id)
		if err != nil {
			return err
		}
		dirty := false
		if !homed && primaryKeyIndex(data, e.Start, e.End) >= 0 {
			t.pl.Lock(id)
			err := t.stabInsertElement(data, e)
			t.pl.Unlock(id)
			if err != nil {
				t.unpin(id, true)
				return err
			}
			homed = true
			dirty = true
		}
		child := intShape.Child(data, intShape.Search(data, e.Start))
		if err := t.unpin(id, dirty); err != nil {
			return err
		}
		id = child
	}
	if !homed {
		return nil
	}
	data, err := t.fetch(id)
	if err != nil {
		return err
	}
	pos := blink.LeafSearch(data, e.Start)
	if pos >= blink.LeafCount(data) || blink.LeafKey(data, pos) != e.Start {
		t.unpin(id, false)
		return fmt.Errorf("%w: bulk-loaded element %v missing from leaf", ErrCorrupt, e)
	}
	t.pl.Lock(id)
	_, fl := blink.LeafElem(data, pos)
	blink.SetLeafFlags(data, pos, fl|xmldoc.FlagInStabList)
	t.pl.Unlock(id)
	return t.unpin(id, true)
}
