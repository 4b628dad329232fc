package blink

import (
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// Pages are the owner's held-page helpers. The write layer pins, releases
// and frees pages only through them, so every pool call — and the WAL
// transaction they route through — stays in the owner's package, where
// walheld checks it.
type Pages struct {
	Fetch    func(pagefile.PageID) ([]byte, error)
	FetchNew func() (pagefile.PageID, []byte, error)
	Unpin    func(id pagefile.PageID, dirty bool) error
	Discard  func(pagefile.PageID) error // drop a pinned page that left the tree
	Free     func(pagefile.PageID) error // free an unpinned page that left the tree
}

// Hooks is the XR-tree's stab-list upkeep: the steps Algorithms 1 and 2
// add to the B+-tree's insert and delete (§4). The write layer calls each
// one inside the latch bracket of the pages it names — a node's latch
// covers its stab chain — so a reader never sees a stab list mid-move.
// The B+-tree supplies none.
type Hooks interface {
	// Stabs reports whether a key of internal node d stabs e; the insert
	// descent then calls Home to add e to d's stab list (I1).
	Stabs(d []byte, e xmldoc.Element) bool
	Home(d []byte, e xmldoc.Element) error
	// Unhome removes e from node d's stab list if it lives there (D1).
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
	d, err := t.pages.Fetch(id)
	if err != nil {
		return err
	}
	t.pl.LockRight(id)
	SetLeafPrev(d, prev)
	t.pl.Unlock(id)
	return t.pages.Unpin(id, true)
}
