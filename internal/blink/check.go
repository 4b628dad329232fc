package blink

import (
	"fmt"

	"xrtree/internal/pagefile"
)

// Checker is the owner's part of an invariant walk: the walk calls Node
// for every internal node and Leaf for every leaf once the backbone checks
// on that page pass, with the keys of every node above it, and Done once
// the whole walk passed.
type Checker interface {
	Node(id pagefile.PageID, d []byte, height int, anc []uint32) error
	Leaf(d []byte, anc []uint32) error
	Done() error
}

// CheckInvariants walks the whole tree and validates the backbone:
//
//   - B+-tree structure: keys sorted and inside their subtree's range,
//     every non-root internal node keyed, leaf entries sorted and in
//     range, prev and next links of the leaf chain symmetric, and as many
//     elements in all as the meta count says;
//   - B-link structure: every page's high key equals its subtree's upper
//     bound (0 on the rightmost spine), and right links chain each level
//     left to right with no skips.
//
// The owner's Checker adds its own invariants page by page. A violation
// wraps the owner's ErrCorrupt. CheckInvariants takes the writer latch: it
// excludes writers for the whole walk (readers never modify pages and may
// run alongside it).
func (t *Tree) CheckInvariants() error {
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	return (*Writer)(t).Check()
}

// Check is CheckInvariants for a caller that already holds the latch.
func (w *Writer) Check() error {
	var ck Checker
	if w.hooks != nil {
		ck = w.hooks.Checker()
	}
	return w.Walk(ck)
}

// Walk runs the backbone walk of CheckInvariants with checker ck (nil for
// none), for a caller that already holds the latch.
func (w *Writer) Walk(ck Checker) error {
	t := (*Tree)(w)
	root, h := t.Root()
	wk := &walker{t: t, ck: ck, rootH: h, nextAt: make(map[int]pagefile.PageID)}
	err := wk.walk(root, h, 0, ^uint32(0), nil)
	if err == nil && wk.elems != t.Len() {
		err = fmt.Errorf("meta count %d but %d elements in leaves", t.Len(), wk.elems)
	}
	if err == nil && ck != nil {
		err = ck.Done()
	}
	if err != nil {
		return fmt.Errorf("%w: %w", t.corrupt, err)
	}
	return nil
}

type walker struct {
	t        *Tree
	ck       Checker
	rootH    int
	elems    int
	prevLeaf pagefile.PageID
	// nextAt records, per height, the right link of the page visited last
	// at that height: an in-order walk visits each level left to right.
	nextAt map[int]pagefile.PageID
}

// walk validates the subtree under page id, whose keys lie in [lo, hi);
// anc holds the keys of every node above it.
func (w *walker) walk(id pagefile.PageID, height int, lo, hi uint32, anc []uint32) error {
	t, s := w.t, w.t.shape
	d, err := t.fetch(id)
	if err != nil {
		return err
	}
	defer t.unpin(id, false)
	if height == 1 && !IsLeaf(d) {
		return fmt.Errorf("page %d: expected leaf", id)
	}
	if height > 1 && d[0] != s.Type {
		return fmt.Errorf("page %d: expected internal node at height %d", id, height)
	}

	high, right := s.High(d), s.Next(d)
	if height == 1 {
		high, right = LeafHigh(d), LeafNext(d)
	}
	if hi == ^uint32(0) {
		if high != 0 {
			return fmt.Errorf("rightmost page %d (height %d) has high key %d, want 0", id, height, high)
		}
		if right != pagefile.InvalidPage {
			return fmt.Errorf("rightmost page %d (height %d) has right link %d", id, height, right)
		}
	} else {
		if high != hi {
			return fmt.Errorf("page %d (height %d) high key %d, want %d", id, height, high, hi)
		}
		if right == pagefile.InvalidPage {
			return fmt.Errorf("non-rightmost page %d (height %d) has no right link", id, height)
		}
	}
	if want, ok := w.nextAt[height]; ok && want != id {
		return fmt.Errorf("right link at height %d points at %d, next page in order is %d", height, want, id)
	}
	w.nextAt[height] = right

	if height == 1 {
		return w.leaf(id, d, lo, hi, anc)
	}
	m := s.Count(d)
	if m < 1 && height != w.rootH {
		return fmt.Errorf("non-root node %d has %d keys", id, m)
	}
	keys := make([]uint32, m)
	for i := range keys {
		keys[i] = s.Key(d, i)
		if i > 0 && keys[i-1] >= keys[i] {
			return fmt.Errorf("node %d keys unsorted at %d", id, i)
		}
		if keys[i] < lo || keys[i] >= hi {
			return fmt.Errorf("node %d key %d outside [%d,%d)", id, keys[i], lo, hi)
		}
	}
	if w.ck != nil {
		if err := w.ck.Node(id, d, height, anc); err != nil {
			return err
		}
	}
	childAnc := append(anc[:len(anc):len(anc)], keys...)
	for i := 0; i <= m; i++ {
		clo, chi := lo, hi
		if i > 0 {
			clo = keys[i-1]
		}
		if i < m {
			chi = keys[i]
		}
		if err := w.walk(s.Child(d, i), height-1, clo, chi, childAnc); err != nil {
			return err
		}
	}
	return nil
}

// leaf validates leaf id, whose keys lie in [lo, hi), and its back link
// to the leaf walked before it (walk checked that leaf's next link).
func (w *walker) leaf(id pagefile.PageID, d []byte, lo, hi uint32, anc []uint32) error {
	if LeafPrev(d) != w.prevLeaf {
		return fmt.Errorf("leaf %d prev = %d, want %d", id, LeafPrev(d), w.prevLeaf)
	}
	n := LeafCount(d)
	for i := 0; i < n; i++ {
		k := LeafKey(d, i)
		if i > 0 && LeafKey(d, i-1) >= k {
			return fmt.Errorf("leaf %d unsorted at %d", id, i)
		}
		if k < lo || k >= hi {
			return fmt.Errorf("leaf %d entry %d outside [%d,%d)", id, k, lo, hi)
		}
	}
	if w.ck != nil {
		if err := w.ck.Leaf(d, anc); err != nil {
			return err
		}
	}
	w.elems += n
	w.prevLeaf = id
	return nil
}
