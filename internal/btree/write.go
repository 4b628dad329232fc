package btree

import (
	"fmt"

	"xrtree/internal/xmldoc"
)

// The write side is the B-link write layer of internal/blink, run without
// stab hooks; this file holds its entry points. Writers serialize on
// wlatch and run each mutation in one WAL transaction, but never block
// readers tree-wide: the layer latches a page only for each mutation of
// it and follows the B-link split and merge order (see internal/blink).

// Insert adds e to the tree. The start position must be unique within the
// indexed set (region starts of distinct elements are distinct by
// construction); inserting a duplicate start returns ErrDuplicate.
func (t *Tree) Insert(e xmldoc.Element) (err error) {
	if err := t.check(e); err != nil {
		return err
	}
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	defer t.debugPinBalance()()
	commit := t.beginTx()
	defer commit(&err)
	if err := t.InsertLocked(e, t.c); err != nil {
		return err
	}
	t.count.Add(1)
	return t.syncMeta()
}

// Delete removes the element with the given start key. It returns
// ErrNotFound if no such element exists.
func (t *Tree) Delete(key uint32) (err error) {
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	defer t.debugPinBalance()()
	commit := t.beginTx()
	defer commit(&err)
	if err := t.DeleteLocked(xmldoc.Element{Start: key}, t.c); err != nil {
		return err
	}
	t.count.Add(-1)
	return t.syncMeta()
}

// BulkLoad builds the tree from a start-sorted element slice, packing
// leaves to a fill factor and building internal levels bottom-up. The tree
// must be empty. fill is the target page occupancy in (0,1]; 0 means 1.0
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
	if err := t.BulkLoadLocked(es, fill, t.check); err != nil {
		return err
	}
	t.count.Store(int64(len(es)))
	return t.syncMeta()
}

// check is Insert's element check, which BulkLoad applies too.
func (t *Tree) check(e xmldoc.Element) error {
	if e.DocID != t.DocID() {
		return fmt.Errorf("btree: element of DocID %d in tree for DocID %d", e.DocID, t.DocID())
	}
	return nil
}

// CheckInvariants walks the whole tree and validates its B+-tree and
// B-link structure (see blink.Tree.CheckLocked) against the element count.
// It takes the write latch, excluding writers for the whole walk.
func (t *Tree) CheckInvariants() error {
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	if err := t.CheckLocked(t.Len(), nil); err != nil {
		return fmt.Errorf("btree: %w", err)
	}
	return nil
}
