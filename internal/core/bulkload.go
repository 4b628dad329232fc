package core

// Bulk loading builds the B+-tree backbone bottom-up at a chosen fill
// factor — the representation the read-only join experiments measure —
// with the write layer of internal/blink (separators use the §3.2 key
// choice, so they stab as few elements as possible), and then homes every
// element in the stab list of the highest stabbing node, exactly the state
// repeated Insert calls would converge to.

import (
	"fmt"

	"xrtree/internal/blink"
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
	if err := t.BulkLoadLocked(es, fill, t.check); err != nil {
		return err
	}
	t.count.Store(int64(len(es)))

	// Home every element. The tree is published, so homing — flag raising
	// plus chain inserts — is one long stab move.
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
