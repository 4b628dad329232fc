package blink

import (
	"fmt"

	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// BulkLoad builds the empty tree bottom-up from es, which must ascend
// strictly by start, packing pages to fill — the target occupancy in
// (0,1]; anything else means fully packed, which is what the read-only
// join experiments use. Every element passes Insert's check. The XR-tree
// then homes every element (Hooks.Loaded).
//
// The build is unlogged: its durability point is the store's explicit
// save, and the bracket keeps fuzzy WAL checkpoints from reading
// half-built frames. The empty root leaf becomes the first leaf. It and
// every page the leaf chain reaches from it are visible to readers, so
// their mutations are latched; a fresh page is filled unlatched and only
// then linked. The internal levels stay unreachable until SetRoot and take
// no latches.
func (t *Tree) BulkLoad(es []xmldoc.Element, fill float64) (err error) {
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	defer t.done(&err)
	defer t.debugPinBalance()()
	t.pool.BeginUnlogged()
	defer t.pool.EndUnlogged()
	defer t.settle()
	if n := t.count.Load(); n != 0 {
		return fmt.Errorf("blink: BulkLoad into non-empty tree (%d elements)", n)
	}
	if len(es) == 0 {
		return nil
	}
	if err := t.bulkLoad(es, fill); err != nil {
		return err
	}
	t.count.Store(int64(len(es)))
	if t.hooks != nil {
		if err := t.hooks.Loaded(es); err != nil {
			return err
		}
	}
	return t.syncMeta()
}

// bulkLoad checks es and builds the backbone levels.
func (t *Tree) bulkLoad(es []xmldoc.Element, fill float64) error {
	for i, e := range es {
		if err := t.valid(e); err != nil {
			return fmt.Errorf("%w (BulkLoad element %d)", err, i)
		}
		if i > 0 && es[i-1].Start >= e.Start {
			return fmt.Errorf("blink: BulkLoad input not sorted at %d", i)
		}
	}
	if fill <= 0 || fill > 1 {
		fill = 1
	}

	// The leaf level. level[i].sep is the separator left of page i (unused
	// for i = 0).
	type levelEntry struct {
		sep uint32
		id  pagefile.PageID
	}
	var level []levelEntry
	perLeaf := max(int(float64(t.leafCap)*fill), 1)
	var prevID pagefile.PageID
	var prev []byte
	for off := 0; off < len(es); off += perLeaf {
		n := min(len(es)-off, perLeaf)
		var id pagefile.PageID
		var d []byte
		var err error
		if off == 0 {
			id, _ = t.Root()
			d, err = t.fetch(id)
		} else {
			id, d, err = t.fetchNew()
		}
		if err != nil {
			return err
		}
		sep := uint32(0)
		if off == 0 {
			t.pl.Lock(id)
			fillLeaf(d, es[:n])
			t.pl.Unlock(id)
		} else {
			fillLeaf(d, es[off:off+n])
			sep = t.sep(es[off-1].Start, es[off].Start)
			SetLeafPrev(d, prevID)
			t.pl.Lock(prevID)
			SetLeafNext(prev, id)
			SetLeafHigh(prev, sep)
			t.pl.Unlock(prevID)
			if err := t.unpin(prevID, true); err != nil {
				return err
			}
		}
		level = append(level, levelEntry{sep, id})
		prevID, prev = id, d
	}
	if err := t.unpin(prevID, true); err != nil {
		return err
	}

	// The internal levels, until one node remains; each node stays pinned
	// until its right neighbour exists to set its link and high key.
	s := t.shape
	height := 1
	perNode := max(int(float64(t.intCap)*fill), 2)
	for len(level) > 1 {
		var next []levelEntry
		prev = nil
		for off := 0; off < len(level); {
			n := min(len(level)-off, perNode+1)
			if len(level)-off-n == 1 {
				n-- // a node needs two children: leave the last one a pair
			}
			id, d, err := t.fetchNew()
			if err != nil {
				return err
			}
			s.Init(d)
			s.SetChild(d, 0, level[off].id)
			for i := 1; i < n; i++ {
				fresh(s.Entry(d, i-1), level[off+i].sep, level[off+i].id)
			}
			s.SetCount(d, n-1)
			if prev != nil {
				s.SetNext(prev, id)
				s.SetHigh(prev, level[off].sep)
				if err := t.unpin(prevID, true); err != nil {
					return err
				}
			}
			next = append(next, levelEntry{level[off].sep, id})
			prevID, prev = id, d
			off += n
		}
		if err := t.unpin(prevID, true); err != nil {
			return err
		}
		level = next
		height++
	}
	t.SetRoot(level[0].id, height)
	return nil
}

// fillLeaf formats d as an unlinked leaf holding es, flags clear.
func fillLeaf(d []byte, es []xmldoc.Element) {
	InitLeaf(d)
	for i, e := range es {
		e.Encode(LeafEntry(d, i), 0)
	}
	SetLeafCount(d, len(es))
}
