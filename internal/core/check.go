package core

// CheckInvariants verifies the full Definition 4 of the paper plus the
// derived bookkeeping, and is run after every operation in the randomized
// tests. It is deliberately exhaustive rather than fast.

import (
	"fmt"

	"xrtree/internal/blink"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// The XR-tree's CheckInvariants (blink.Tree.CheckInvariants with the
// checker below) validates:
//
//  1. B+-tree structure: key ordering, separation, child counts, leaf chain
//     links, and the element count.
//  2. Stab lists: chain links, (key, start) ordering, each entry's key is
//     its element's primary stabbing key of that node, per-key (ps, pe) and
//     head pointers match the chain, and PSL elements are strictly nested.
//  3. Global placement: every indexed element appears in the stab list of
//     exactly the highest node (on its start path) with a stabbing key, and
//     its leaf InStabList flag mirrors that; elements in stab lists exist
//     in leaves; the meta stab counters match reality.
//  4. B-link structure: every page's high key equals its subtree's upper
//     bound (0 on the rightmost spine), and right links chain each level
//     left to right with no skips.
//
// Parts 1 and 4 are the backbone walk of internal/blink, shared with the
// B+-tree; the checker adds parts 2 and 3 page by page and at the end.

// Checker returns the stab-list and placement checker.
func (h stabHooks) Checker() blink.Checker {
	return &checker{t: h.Tree, stabbed: make(map[uint32]stabHome)}
}

// checker is the XR-tree's blink.Checker: stab lists and placement.
type checker struct {
	t           *Tree
	stabEntries int
	stabPages   int
	flaggedLeaf int
	// elements maps start → (end, flagged) for the placement check.
	elements []checkedElem
	// stabbed maps start → node path info: each stab entry with the id of
	// the node holding it and that node's height.
	stabbed map[uint32]stabHome
}

type checkedElem struct {
	start, end uint32
	flagged    bool
}

type stabHome struct {
	height int
	key    uint32
	end    uint32
}

// Leaf counts leaf d's flagged entries and records every entry for the
// placement check. An unflagged element must not be stabbed by any key on
// its path — otherwise it belongs in that node's stab list.
func (ck *checker) Leaf(d []byte, anc []uint32) error {
	for i := range blink.LeafCount(d) {
		el, fl := blink.LeafElem(d, i)
		flagged := fl&xmldoc.FlagInStabList != 0
		if flagged {
			ck.flaggedLeaf++
		} else {
			for _, ak := range anc {
				if el.Start <= ak && ak <= el.End {
					return fmt.Errorf("unflagged element %v stabbed by path key %d", el, ak)
				}
			}
		}
		ck.elements = append(ck.elements, checkedElem{start: el.Start, end: el.End, flagged: flagged})
	}
	return nil
}

// Node validates node id's stab chain and directory; anc holds the keys
// of every node above it.
func (ck *checker) Node(id pagefile.PageID, node []byte, height int, anc []uint32) error {
	t := ck.t
	type headInfo struct {
		page  pagefile.PageID
		start uint32
		end   uint32
	}
	heads := make(map[uint32]headInfo)

	p := stabHead(node)
	var prevPage pagefile.PageID = pagefile.InvalidPage
	var lastKey, lastStart uint32
	haveLast := false
	var lastPSLKey uint32
	var lastPSLEnd uint32
	for p != pagefile.InvalidPage {
		data, err := t.fetchStab(p)
		if err != nil {
			return fmt.Errorf("node %d stab chain: %w", id, err)
		}
		ck.stabPages++
		if stabPrev(data) != prevPage {
			t.w.Unpin(p, false)
			return fmt.Errorf("stab page %d prev = %d, want %d", p, stabPrev(data), prevPage)
		}
		n := stabCount(data)
		if n == 0 {
			t.w.Unpin(p, false)
			return fmt.Errorf("stab page %d of node %d is empty", p, id)
		}
		for i := 0; i < n; i++ {
			en := stabEntryAt(data, i)
			if haveLast && !stabLess(lastKey, lastStart, en.key, en.start) {
				t.w.Unpin(p, false)
				return fmt.Errorf("node %d stab chain unsorted: (%d,%d) then (%d,%d)",
					id, lastKey, lastStart, en.key, en.start)
			}
			// Primary key check: en.key must be the smallest node key
			// stabbing (start, end).
			j := primaryKeyIndex(node, en.start, en.end)
			if j < 0 || intShape.Key(node, j) != en.key {
				t.w.Unpin(p, false)
				return fmt.Errorf("node %d: entry (%d,%d) keyed %d, primary key index %d",
					id, en.start, en.end, en.key, j)
			}
			// No ancestor key may stab it (Definition 4.4).
			for _, ak := range anc {
				if en.start <= ak && ak <= en.end {
					t.w.Unpin(p, false)
					return fmt.Errorf("node %d: entry (%d,%d) also stabbed by ancestor key %d",
						id, en.start, en.end, ak)
				}
			}
			// Strict nesting within a PSL: successive entries are nested.
			if haveLast && en.key == lastPSLKey {
				if en.end >= lastPSLEnd {
					t.w.Unpin(p, false)
					return fmt.Errorf("node %d PSL(%d): (%d,%d) not nested in predecessor ending %d",
						id, en.key, en.start, en.end, lastPSLEnd)
				}
			}
			if _, ok := heads[en.key]; !ok {
				heads[en.key] = headInfo{page: p, start: en.start, end: en.end}
			}
			if prev, dup := ck.stabbed[en.start]; dup {
				t.w.Unpin(p, false)
				return fmt.Errorf("element starting %d in two stab lists (heights %d and %d)",
					en.start, prev.height, height)
			}
			ck.stabbed[en.start] = stabHome{height: height, key: en.key, end: en.end}
			lastKey, lastStart = en.key, en.start
			lastPSLKey, lastPSLEnd = en.key, en.end
			haveLast = true
			ck.stabEntries++
		}
		next := stabNext(data)
		t.w.Unpin(p, false)
		prevPage = p
		p = next
	}
	if stabTail(node) != prevPage {
		return fmt.Errorf("node %d stab tail = %d, want %d", id, stabTail(node), prevPage)
	}

	// Directory checks per key.
	for i := range intShape.Count(node) {
		k := intShape.Key(node, i)
		h, ok := heads[k]
		ps, pe := keyPS(node, i), keyPE(node, i)
		psl := keyPSLPage(node, i)
		if !ok {
			if ps != 0 || pe != 0 || psl != pagefile.InvalidPage {
				return fmt.Errorf("node %d key %d: empty PSL but directory (%d,%d,%d)",
					id, k, ps, pe, psl)
			}
			continue
		}
		if ps != h.start || pe != h.end {
			return fmt.Errorf("node %d key %d: (ps,pe)=(%d,%d), head is (%d,%d)",
				id, k, ps, pe, h.start, h.end)
		}
		if psl != h.page {
			return fmt.Errorf("node %d key %d: pslPage=%d, head on page %d", id, k, psl, h.page)
		}
		if !(h.start <= k && k <= h.end) {
			return fmt.Errorf("node %d key %d does not stab its PSL head (%d,%d)",
				id, k, h.start, h.end)
		}
	}
	return nil
}

// Done checks the meta stab counters and the leaf flags against the stab
// entries the walk found, then their placement.
func (ck *checker) Done() error {
	t := ck.t
	if int64(ck.stabEntries) != t.stabCount.Load() {
		return fmt.Errorf("meta stabCount %d but %d stab entries", t.stabCount.Load(), ck.stabEntries)
	}
	if int64(ck.stabPages) != t.stabPages.Load() {
		return fmt.Errorf("meta stabPages %d but %d stab pages", t.stabPages.Load(), ck.stabPages)
	}
	if ck.flaggedLeaf != ck.stabEntries {
		return fmt.Errorf("%d flagged leaf entries but %d stab entries", ck.flaggedLeaf, ck.stabEntries)
	}
	return ck.checkPlacement()
}

// checkPlacement cross-checks leaf flags against stab membership and
// verifies that every element sits in the *highest* stabbing node.
func (ck *checker) checkPlacement() error {
	for _, el := range ck.elements {
		home, inStab := ck.stabbed[el.start]
		if el.flagged != inStab {
			return fmt.Errorf("element (%d,%d): flag=%v but stab membership=%v",
				el.start, el.end, el.flagged, inStab)
		}
		if inStab && home.end != el.end {
			return fmt.Errorf("element (%d,%d): stab entry records end %d",
				el.start, el.end, home.end)
		}
	}
	// Every stab entry must correspond to a leaf element.
	if len(ck.stabbed) != ck.stabEntries {
		return fmt.Errorf("%d distinct stabbed starts but %d stab entries",
			len(ck.stabbed), ck.stabEntries)
	}
	starts := make(map[uint32]bool, len(ck.elements))
	for _, el := range ck.elements {
		starts[el.start] = true
	}
	for s := range ck.stabbed {
		if !starts[s] {
			return fmt.Errorf("stab entry for start %d has no leaf element", s)
		}
	}
	return nil
}
