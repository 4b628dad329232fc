package core

import (
	"slices"
	"testing"

	"xrtree/internal/blink"
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// staleTree hand-builds the state a reader meets when it overtakes two
// splits whose parent updates have not landed yet: leaf L1 split into
// L1|L2 (high key 50) but N1 still points at L1 alone, and node N1 split
// into N1|N2 (high key 200) but the root still points at N1 alone. The
// nodes have no keys, so every element lives in a leaf, unflagged.
//
//	root ─▶ N1 ─high 200─▶ N2
//	        │              │
//	        L1 ─high 50─▶ L2 ─high 200─▶ L3
func staleTree(t *testing.T) *Tree {
	t.Helper()
	pool := newPool(t, 256, 32)
	tr, err := New(pool, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids [6]pagefile.PageID
	var pages [6][]byte
	for i := range ids {
		if ids[i], pages[i], err = pool.FetchNew(); err != nil {
			t.Fatal(err)
		}
	}
	root, n1, n2, l1, l2, l3 := 0, 1, 2, 3, 4, 5
	leaf := func(i int, next pagefile.PageID, high uint32, es ...xmldoc.Element) {
		blink.InitLeaf(pages[i])
		for j, e := range es {
			blink.InsertLeafEntry(pages[i], j, j, e, 0)
		}
		blink.SetLeafNext(pages[i], next)
		blink.SetLeafHigh(pages[i], high)
	}
	node := func(i int, child, next pagefile.PageID, high uint32) {
		intShape.Init(pages[i])
		intShape.SetChild(pages[i], 0, child)
		intShape.SetNext(pages[i], next)
		intShape.SetHigh(pages[i], high)
	}
	el := func(s, e uint32) xmldoc.Element { return xmldoc.Element{DocID: 1, Start: s, End: e} }
	leaf(l1, ids[l2], 50, el(10, 15), el(20, 25))
	leaf(l2, ids[l3], 200, el(50, 65), el(55, 60))
	leaf(l3, pagefile.InvalidPage, 0, el(200, 230), el(210, 215))
	node(n1, ids[l1], ids[n2], 200)
	node(n2, ids[l3], pagefile.InvalidPage, 0)
	node(root, ids[n1], pagefile.InvalidPage, 0)
	for _, id := range ids {
		if err := pool.Unpin(id, true); err != nil {
			t.Fatal(err)
		}
	}
	tr.SetRoot(ids[root], 3)
	return tr
}

// TestDescentsMoveRight checks that both descents — the copy descent
// behind Lookup and SeekGE, and FindAncestors' pinned descent — follow
// right links past a stale parent, at the leaf level and at the internal
// level, landing on the right sibling that covers the key.
func TestDescentsMoveRight(t *testing.T) {
	tr := staleTree(t)
	for _, tc := range []struct {
		key          uint32
		nodes, leafs int64
		ancestors    []uint32 // starts of FindAncestors(key+2)
	}{
		{20, 2, 1, []uint32{20}},        // no move
		{55, 2, 2, []uint32{50, 55}},    // L1 → L2
		{210, 3, 1, []uint32{200, 210}}, // N1 → N2
	} {
		var c metrics.Counters
		e, err := tr.Lookup(tc.key, &c)
		if err != nil || e.Start != tc.key {
			t.Fatalf("Lookup(%d) = %v, %v", tc.key, e, err)
		}
		if c.IndexNodeReads != tc.nodes || c.LeafReads != tc.leafs {
			t.Errorf("Lookup(%d) read %d nodes, %d leaves; want %d, %d", tc.key, c.IndexNodeReads, c.LeafReads, tc.nodes, tc.leafs)
		}
		it, err := tr.SeekGE(tc.key-1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if e, ok := it.Peek(); !ok || e.Start != tc.key {
			t.Errorf("SeekGE(%d) at %v %v, want start %d", tc.key-1, e, ok, tc.key)
		}
		it.Close()

		c = metrics.Counters{}
		anc, err := tr.FindAncestors(tc.key+2, 0, &c)
		if err != nil {
			t.Fatal(err)
		}
		var starts []uint32
		for _, a := range anc {
			starts = append(starts, a.Start)
		}
		if !slices.Equal(starts, tc.ancestors) {
			t.Errorf("FindAncestors(%d) = %v, want starts %v", tc.key+2, anc, tc.ancestors)
		}
		if c.IndexNodeReads != tc.nodes || c.LeafReads != tc.leafs {
			t.Errorf("FindAncestors(%d) read %d nodes, %d leaves; want %d, %d", tc.key+2, c.IndexNodeReads, c.LeafReads, tc.nodes, tc.leafs)
		}
	}
}
