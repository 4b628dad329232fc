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

// CheckInvariants walks the whole tree and validates:
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
// CheckInvariants takes the write latch: it excludes writers for the whole
// walk (readers never modify pages and may run alongside it).
func (t *Tree) CheckInvariants() error {
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	return t.checkInvariantsLocked()
}

// checkInvariantsLocked is CheckInvariants for callers that already hold
// the write latch — taking it here would self-deadlock the debug build's
// post-mutation sampling, which runs under the write latch.
func (t *Tree) checkInvariantsLocked() error {
	root, h := t.Root()
	ck := &checker{t: t, rootH: h}
	if _, _, _, err := ck.walk(root, h, 0, ^uint32(0), nil); err != nil {
		return err
	}
	if int64(ck.elemCount) != t.count.Load() {
		return fmt.Errorf("xrtree: meta count %d but %d elements in leaves", t.count.Load(), ck.elemCount)
	}
	if int64(ck.stabEntries) != t.stabCount.Load() {
		return fmt.Errorf("xrtree: meta stabCount %d but %d stab entries", t.stabCount.Load(), ck.stabEntries)
	}
	if int64(ck.stabPages) != t.stabPages.Load() {
		return fmt.Errorf("xrtree: meta stabPages %d but %d stab pages", t.stabPages.Load(), ck.stabPages)
	}
	if ck.flaggedLeaf != ck.stabEntries {
		return fmt.Errorf("xrtree: %d flagged leaf entries but %d stab entries", ck.flaggedLeaf, ck.stabEntries)
	}
	return ck.checkPlacement()
}

type checker struct {
	t           *Tree
	rootH       int
	elemCount   int
	stabEntries int
	stabPages   int
	flaggedLeaf int
	prevLeaf    pagefile.PageID
	prevLeafKey uint32
	// nextAt records, per height, the right link of the previously visited
	// page so the next page visited at that height can be checked against
	// it — an in-order walk visits each level left to right.
	nextAt map[int]pagefile.PageID
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

// walk validates the subtree rooted at id whose keys lie in [lo, hi).
// ancKeys carries the keys of all ancestor nodes for placement checks.
// It returns the subtree's smallest and largest leaf keys.
func (ck *checker) walk(id pagefile.PageID, height int, lo, hi uint32, ancKeys []uint32) (minKey, maxKey uint32, empty bool, err error) {
	t := ck.t
	data, err := t.fetch(id)
	if err != nil {
		return 0, 0, true, err
	}
	defer t.unpin(id, false)

	// B-link invariants (shared by leaves and internal nodes): the high key
	// mirrors the subtree's upper bound — 0, the +∞ sentinel, exactly on
	// the rightmost spine where hi is unbounded — and right links chain the
	// level with no skips.
	var high uint32
	var right pagefile.PageID
	if height == 1 {
		high, right = blink.LeafHigh(data), blink.LeafNext(data)
	} else if !blink.IsLeaf(data) && data[0] == internalType {
		high, right = intShape.High(data), intShape.Next(data)
	}
	if hi == ^uint32(0) {
		if high != 0 {
			return 0, 0, true, fmt.Errorf("xrtree: rightmost page %d (height %d) has high key %d, want 0", id, height, high)
		}
		if right != pagefile.InvalidPage {
			return 0, 0, true, fmt.Errorf("xrtree: rightmost page %d (height %d) has right link %d", id, height, right)
		}
	} else {
		if high != hi {
			return 0, 0, true, fmt.Errorf("xrtree: page %d (height %d) high key %d, want %d", id, height, high, hi)
		}
		if right == pagefile.InvalidPage {
			return 0, 0, true, fmt.Errorf("xrtree: non-rightmost page %d (height %d) has no right link", id, height)
		}
	}
	if ck.nextAt == nil {
		ck.nextAt = make(map[int]pagefile.PageID)
	}
	if want, ok := ck.nextAt[height]; ok && want != id {
		return 0, 0, true, fmt.Errorf("xrtree: right link at height %d points at %d, next page in order is %d", height, want, id)
	}
	ck.nextAt[height] = right

	if height == 1 {
		if !blink.IsLeaf(data) {
			return 0, 0, true, fmt.Errorf("xrtree: page %d: expected leaf", id)
		}
		n := blink.LeafCount(data)
		if blink.LeafPrev(data) != ck.prevLeaf {
			return 0, 0, true, fmt.Errorf("xrtree: leaf %d prev = %d, want %d", id, blink.LeafPrev(data), ck.prevLeaf)
		}
		if ck.prevLeaf != pagefile.InvalidPage {
			pd, err := t.fetch(ck.prevLeaf)
			if err != nil {
				return 0, 0, true, err
			}
			nx := blink.LeafNext(pd)
			t.unpin(ck.prevLeaf, false)
			if nx != id {
				return 0, 0, true, fmt.Errorf("xrtree: leaf %d next = %d, want %d", ck.prevLeaf, nx, id)
			}
		}
		for i := 0; i < n; i++ {
			el, fl := blink.LeafElem(data, i)
			if i > 0 {
				prev, _ := blink.LeafElem(data, i-1)
				if prev.Start >= el.Start {
					return 0, 0, true, fmt.Errorf("xrtree: leaf %d unsorted at %d", id, i)
				}
			}
			if el.Start < lo || el.Start >= hi {
				return 0, 0, true, fmt.Errorf("xrtree: leaf %d entry %v outside [%d,%d)", id, el, lo, hi)
			}
			flagged := fl&xmldoc.FlagInStabList != 0
			if flagged {
				ck.flaggedLeaf++
			} else {
				// An unflagged element must not be stabbed by any key on its
				// path — otherwise it belongs in that node's stab list.
				for _, ak := range ancKeys {
					if el.Start <= ak && ak <= el.End {
						return 0, 0, true, fmt.Errorf("xrtree: unflagged element %v stabbed by path key %d", el, ak)
					}
				}
			}
			ck.elements = append(ck.elements, checkedElem{start: el.Start, end: el.End, flagged: flagged})
		}
		ck.elemCount += n
		if n == 0 {
			return 0, 0, true, nil
		}
		ck.prevLeaf = id
		ck.prevLeafKey = blink.LeafKey(data, n-1)
		return blink.LeafKey(data, 0), blink.LeafKey(data, n-1), false, nil
	}

	if blink.IsLeaf(data) || data[0] != internalType {
		return 0, 0, true, fmt.Errorf("xrtree: page %d: expected internal node at height %d", id, height)
	}
	m := intShape.Count(data)
	if m < 1 && height != ck.rootH {
		return 0, 0, true, fmt.Errorf("xrtree: non-root node %d has %d keys", id, m)
	}
	keys := make([]uint32, m)
	for i := 0; i < m; i++ {
		keys[i] = intShape.Key(data, i)
		if i > 0 && keys[i-1] >= keys[i] {
			return 0, 0, true, fmt.Errorf("xrtree: node %d keys unsorted at %d", id, i)
		}
		if keys[i] < lo || keys[i] >= hi {
			return 0, 0, true, fmt.Errorf("xrtree: node %d key %d outside [%d,%d)", id, keys[i], lo, hi)
		}
	}

	if err := ck.checkStabList(id, data, keys, height, ancKeys); err != nil {
		return 0, 0, true, err
	}

	childAnc := append(append([]uint32{}, ancKeys...), keys...)
	var first, last uint32
	seen := false
	for i := 0; i <= m; i++ {
		clo, chi := lo, hi
		if i > 0 {
			clo = keys[i-1]
		}
		if i < m {
			chi = keys[i]
		}
		cmin, cmax, cempty, err := ck.walk(intShape.Child(data, i), height-1, clo, chi, childAnc)
		if err != nil {
			return 0, 0, true, err
		}
		if !cempty {
			if !seen {
				first = cmin
				seen = true
			}
			last = cmax
		}
	}
	return first, last, !seen, nil
}

// checkStabList validates one node's stab chain and directory.
func (ck *checker) checkStabList(id pagefile.PageID, node []byte, keys []uint32, height int, ancKeys []uint32) error {
	t := ck.t
	if ck.stabbed == nil {
		ck.stabbed = make(map[uint32]stabHome)
	}
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
			return fmt.Errorf("xrtree: node %d stab chain: %w", id, err)
		}
		ck.stabPages++
		if stabPrev(data) != prevPage {
			t.unpin(p, false)
			return fmt.Errorf("xrtree: stab page %d prev = %d, want %d", p, stabPrev(data), prevPage)
		}
		n := stabCount(data)
		if n == 0 {
			t.unpin(p, false)
			return fmt.Errorf("xrtree: stab page %d of node %d is empty", p, id)
		}
		for i := 0; i < n; i++ {
			en := stabEntryAt(data, i)
			if haveLast && !stabLess(lastKey, lastStart, en.key, en.start) {
				t.unpin(p, false)
				return fmt.Errorf("xrtree: node %d stab chain unsorted: (%d,%d) then (%d,%d)",
					id, lastKey, lastStart, en.key, en.start)
			}
			// Primary key check: en.key must be the smallest node key
			// stabbing (start, end).
			j := primaryKeyIndex(node, en.start, en.end)
			if j < 0 || keys[j] != en.key {
				t.unpin(p, false)
				return fmt.Errorf("xrtree: node %d: entry (%d,%d) keyed %d, primary key index %d",
					id, en.start, en.end, en.key, j)
			}
			// No ancestor key may stab it (Definition 4.4).
			for _, ak := range ancKeys {
				if en.start <= ak && ak <= en.end {
					t.unpin(p, false)
					return fmt.Errorf("xrtree: node %d: entry (%d,%d) also stabbed by ancestor key %d",
						id, en.start, en.end, ak)
				}
			}
			// Strict nesting within a PSL: successive entries are nested.
			if haveLast && en.key == lastPSLKey {
				if en.end >= lastPSLEnd {
					t.unpin(p, false)
					return fmt.Errorf("xrtree: node %d PSL(%d): (%d,%d) not nested in predecessor ending %d",
						id, en.key, en.start, en.end, lastPSLEnd)
				}
			}
			if _, ok := heads[en.key]; !ok {
				heads[en.key] = headInfo{page: p, start: en.start, end: en.end}
			}
			if prev, dup := ck.stabbed[en.start]; dup {
				t.unpin(p, false)
				return fmt.Errorf("xrtree: element starting %d in two stab lists (heights %d and %d)",
					en.start, prev.height, height)
			}
			ck.stabbed[en.start] = stabHome{height: height, key: en.key, end: en.end}
			lastKey, lastStart = en.key, en.start
			lastPSLKey, lastPSLEnd = en.key, en.end
			haveLast = true
			ck.stabEntries++
		}
		next := stabNext(data)
		t.unpin(p, false)
		prevPage = p
		p = next
	}
	if stabTail(node) != prevPage {
		return fmt.Errorf("xrtree: node %d stab tail = %d, want %d", id, stabTail(node), prevPage)
	}

	// Directory checks per key.
	for i, k := range keys {
		h, ok := heads[k]
		ps, pe := keyPS(node, i), keyPE(node, i)
		psl := keyPSLPage(node, i)
		if !ok {
			if ps != 0 || pe != 0 || psl != pagefile.InvalidPage {
				return fmt.Errorf("xrtree: node %d key %d: empty PSL but directory (%d,%d,%d)",
					id, k, ps, pe, psl)
			}
			continue
		}
		if ps != h.start || pe != h.end {
			return fmt.Errorf("xrtree: node %d key %d: (ps,pe)=(%d,%d), head is (%d,%d)",
				id, k, ps, pe, h.start, h.end)
		}
		if psl != h.page {
			return fmt.Errorf("xrtree: node %d key %d: pslPage=%d, head on page %d", id, k, psl, h.page)
		}
		if !(h.start <= k && k <= h.end) {
			return fmt.Errorf("xrtree: node %d key %d does not stab its PSL head (%d,%d)",
				id, k, h.start, h.end)
		}
	}
	return nil
}

// checkPlacement cross-checks leaf flags against stab membership and
// verifies that every element sits in the *highest* stabbing node.
func (ck *checker) checkPlacement() error {
	for _, el := range ck.elements {
		home, inStab := ck.stabbed[el.start]
		if el.flagged != inStab {
			return fmt.Errorf("xrtree: element (%d,%d): flag=%v but stab membership=%v",
				el.start, el.end, el.flagged, inStab)
		}
		if inStab && home.end != el.end {
			return fmt.Errorf("xrtree: element (%d,%d): stab entry records end %d",
				el.start, el.end, home.end)
		}
	}
	// Every stab entry must correspond to a leaf element.
	if len(ck.stabbed) != ck.stabEntries {
		return fmt.Errorf("xrtree: %d distinct stabbed starts but %d stab entries",
			len(ck.stabbed), ck.stabEntries)
	}
	starts := make(map[uint32]bool, len(ck.elements))
	for _, el := range ck.elements {
		starts[el.start] = true
	}
	for s := range ck.stabbed {
		if !starts[s] {
			return fmt.Errorf("xrtree: stab entry for start %d has no leaf element", s)
		}
	}
	return nil
}
