package blink

import (
	"fmt"
	"sync/atomic"

	"xrtree/internal/invariant"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// Hooks is the XR-tree's part of the write side: the stab-list steps
// Algorithms 1 and 2 add to the B+-tree's insert and delete (§4), and the
// owner steps around a mutation. The write layer calls each stab step
// inside the latch bracket of the pages it names — a node's latch covers
// its stab chain — so a reader never sees a stab list mid-move. The
// B+-tree supplies none.
type Hooks interface {
	// Stabs reports whether a key of internal node d stabs e; the insert
	// descent then calls Home to add e to d's stab list (I1).
	Stabs(d []byte, e xmldoc.Element) bool
	Home(d []byte, e xmldoc.Element) error
	// Unhome removes e from node d's stab list if it lives there (D1, and
	// the undo of Home when the insert fails below d).
	Unhome(d []byte, e xmldoc.Element) (bool, error)
	// SplitLeaf flags the elements of both halves of a split leaf that
	// separator sep newly stabs and sets them rising to the parent as
	// StabSet' (I22).
	SplitLeaf(left, right []byte, sep uint32)
	// Promoted homes the rising StabSet' in node d, which just gained the
	// child's separator as key ci (I32 without a split).
	Promoted(d []byte, ci int) error
	// PreSplit and PostSplit bracket the layout of a node split whose
	// promoted key is mid, around a child separator key (I32, Figure 5):
	// before it, d still holds every key; after it, left and right hold
	// the halves and the elements stabbed by mid rise as the next StabSet'.
	PreSplit(d []byte, mid uint32) error
	PostSplit(left, right []byte, mid, key uint32) error
	// GrowRoot homes the rising StabSet' in a new root (I4).
	GrowRoot(root []byte) error
	// PreRebalance and PostRebalance bracket the change of parent
	// separator li between siblings left and right (D22/D23, D32/D33):
	// before it, and before an internal pair's layout changes; after it.
	PreRebalance(r Rebalance, parent []byte, li int, left, right []byte) error
	PostRebalance(r Rebalance, parent []byte, li int, left, right []byte) error
	// ShrinkRoot vets a keyless root before the tree drops it (D4).
	ShrinkRoot(root []byte) error

	// Region resolves the full region of the element starting at start:
	// Delete calls it under the writer latch, before its transaction, so
	// the destructive descent cannot fail halfway.
	Region(start uint32) (xmldoc.Element, error)
	// Loaded runs after BulkLoad publishes the backbone of es, before the
	// meta page is written: the XR-tree homes every element.
	Loaded(es []xmldoc.Element) error
	// Settled runs when the page work of an Insert, Delete or BulkLoad
	// ends, before an Insert's or Delete's commit waits for the log:
	// readers already see the mutation's final pages in the pool.
	Settled()
	// Done ends every Insert, Delete and BulkLoad once its commit returned,
	// still under the writer latch; ok reports whether the mutation
	// succeeded.
	Done(ok bool)
	// MetaWords returns the owner's counters that the meta page persists
	// after the shared fields, in order. New and Open call it once.
	MetaWords() []*atomic.Int64
	// Checker returns the owner's checker for one CheckInvariants walk.
	Checker() Checker
}

// Rebalance names the change a delete's underflow makes to a sibling pair.
type Rebalance int

const (
	MergeLeaves Rebalance = iota // right leaf into left; separator removed
	BorrowLeaf                   // one entry moves; separator replaced
	MergeNodes                   // left ++ separator ++ right; separator removed
	RotateLeft                   // right's first key up, separator down into left
	RotateRight                  // left's last key up, separator down into right
)

// Writer is the owning package's handle on the write side: the writer
// latch and the held-page helpers. New and Open hand it to the owner, and
// no method of Tree returns it, so only the owner's own writer-side steps
// — its hooks and walks — use it, with the latch held.
type Writer Tree

func (w *Writer) Lock()   { w.wlatch.Lock() }
func (w *Writer) Unlock() { w.wlatch.Unlock() }

func (w *Writer) Fetch(id pagefile.PageID) ([]byte, error)   { return (*Tree)(w).fetch(id) }
func (w *Writer) FetchNew() (pagefile.PageID, []byte, error) { return (*Tree)(w).fetchNew() }
func (w *Writer) Unpin(id pagefile.PageID, dirty bool) error { return (*Tree)(w).unpin(id, dirty) }
func (w *Writer) Discard(id pagefile.PageID) error           { return (*Tree)(w).discard(id) }

// The held-page helpers route every page access through the in-flight WAL
// transaction when one exists; outside a transaction (bulk load, the
// checker, stores without a log) they are the plain pool calls. Only
// writers and the latch-holding walks use them; readers copy or pin pages
// through the pool directly.

func (t *Tree) fetch(id pagefile.PageID) ([]byte, error) {
	if invariant.Enabled && t.peek != nil {
		return t.peek(id)
	}
	data, err := t.pool.FetchHeld(t.tx, id)
	t.debugPinned(err, 1)
	return data, err
}

func (t *Tree) fetchNew() (pagefile.PageID, []byte, error) {
	id, data, err := t.pool.FetchNewHeld(t.tx)
	t.debugPinned(err, 1)
	return id, data, err
}

func (t *Tree) unpin(id pagefile.PageID, dirty bool) error {
	if invariant.Enabled && t.peek != nil {
		return nil
	}
	err := t.pool.Unpin(id, dirty)
	t.debugPinned(err, -1)
	return err
}

// discard drops a pinned page that left the tree.
func (t *Tree) discard(id pagefile.PageID) error {
	err := t.pool.DiscardTx(t.tx, id)
	t.debugPinned(err, -1)
	return err
}

// free frees an unpinned page that left the tree.
func (t *Tree) free(id pagefile.PageID) error {
	return t.pool.FreeTx(t.tx, id)
}

// beginTx starts a WAL transaction for one mutation and returns its
// commit function, to be deferred with the mutation's named error: commit
// runs before the writer latch is released, and a commit failure surfaces
// unless the mutation already failed. No-ops when the pool has no log.
func (t *Tree) beginTx() func(*error) {
	t.tx = t.pool.Begin()
	return func(errp *error) {
		tx := t.tx
		t.tx = nil
		if cerr := t.pool.CommitTx(tx); cerr != nil && *errp == nil {
			*errp = cerr
		}
	}
}

// settle runs the owner's Settled hook when a mutation's page work ends:
// deferred after the mutation's commit, so it runs before the commit waits
// for its fsync.
func (t *Tree) settle() {
	if t.hooks != nil {
		t.hooks.Settled()
	}
}

// done runs the owner's Done hook at the end of a mutation, deferred with
// its named error.
func (t *Tree) done(errp *error) {
	if t.hooks != nil {
		t.hooks.Done(*errp == nil)
	}
}

// valid is Insert's element check, which BulkLoad applies too.
func (t *Tree) valid(e xmldoc.Element) error {
	if e.DocID != t.docID {
		return fmt.Errorf("blink: element of DocID %d in tree for DocID %d", e.DocID, t.docID)
	}
	if e.End <= e.Start {
		return fmt.Errorf("blink: degenerate region %v", e)
	}
	return nil
}

// sep returns the separator between a left page ending at lastLeft and a
// right page starting at firstRight: firstRight, or under the §3.2 key
// choice firstRight−1 when that still separates them — it stabs no element
// starting at firstRight.
func (t *Tree) sep(lastLeft, firstRight uint32) uint32 {
	if t.keyChoice && firstRight-1 > lastLeft {
		return firstRight - 1
	}
	return firstRight
}

// fixPrev points leaf id's back link at prev in a latched write of its
// own. Scans follow next links only, so a split or merge fixes the old
// neighbour after the change is visible. The caller may hold latches on
// pages to the left (a merge's bracket).
func (t *Tree) fixPrev(id, prev pagefile.PageID) error {
	d, err := t.fetch(id)
	if err != nil {
		return err
	}
	t.pl.LockRight(id)
	SetLeafPrev(d, prev)
	t.pl.Unlock(id)
	return t.unpin(id, true)
}
