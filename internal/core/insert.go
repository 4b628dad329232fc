package core

// Algorithm 1 (§4.1): insertion with stab-list maintenance. On the way
// down, the new element joins the stab list of the highest internal node
// that stabs it (step I1). Leaf overflow splits the page and gives up a new
// separator key together with StabSet', the elements newly stabbed by it
// (step I22); internal overflow splits the node and its stab-list chain and
// likewise gives up the promoted key with the elements it stabs (step I32,
// Figure 5). Split propagation that reaches the root grows the tree (I4).
//
// Concurrency: the writer holds wlatch throughout and takes per-page
// exclusive latches only around mutations of reader-reachable pages. A
// node's latch covers its stab chain, so every stab-mutating step (I1
// homing, re-keying, chain splits) runs inside the owning node's latch
// bracket; stab pages themselves are never latched. Splits follow the
// B-link order: the new right sibling — page, entries, stab chain — is
// fully populated while unreachable, then one latched write shrinks the
// left node and installs its right link and high key.

import (
	"fmt"

	"xrtree/internal/blink"
	"xrtree/internal/obs"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// splitResult carries a split's promotion to the parent level.
type splitResult struct {
	key     uint32
	child   pagefile.PageID
	stabSet []stabEntry // elements stabbed by key, to join the parent's SL
}

// intEntryMem is the in-memory form of one internal key entry.
type intEntryMem struct {
	key   uint32
	child pagefile.PageID
	ps    uint32
	pe    uint32
	psl   pagefile.PageID
}

func readIntEntry(data []byte, i int) intEntryMem {
	b := intShape.Entry(data, i)
	return intEntryMem{
		key:   le.Uint32(b[0:]),
		child: pagefile.PageID(le.Uint32(b[4:])),
		ps:    le.Uint32(b[8:]),
		pe:    le.Uint32(b[12:]),
		psl:   pagefile.PageID(le.Uint32(b[16:])),
	}
}

func writeIntEntry(data []byte, i int, e intEntryMem) {
	b := intShape.Entry(data, i)
	le.PutUint32(b[0:], e.key)
	le.PutUint32(b[4:], uint32(e.child))
	le.PutUint32(b[8:], e.ps)
	le.PutUint32(b[12:], e.pe)
	le.PutUint32(b[16:], uint32(e.psl))
}

// Insert adds e to the tree, maintaining every stab-list invariant.
func (t *Tree) Insert(e xmldoc.Element) (err error) {
	if e.DocID != t.DocID() {
		return fmt.Errorf("xrtree: insert of DocID %d into tree for DocID %d", e.DocID, t.DocID())
	}
	if e.End <= e.Start {
		return fmt.Errorf("xrtree: degenerate region %v", e)
	}
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	defer t.endStabMove()
	defer t.debugPinBalance()()
	commit := t.beginTx()
	defer commit(&err)
	root, h := t.Root()
	t.c.Emit(obs.EvIndexDescend, int64(h))
	res, err := t.insertInto(root, h, e, false)
	if err != nil {
		return err
	}
	if res != nil {
		// I4: grow the tree with a new root. The new root — including its
		// stab list — is built while unreachable and published by SetRoot;
		// readers still descending from the old root reach the new right
		// half through its right link.
		newRootID, data, err := t.fetchNew()
		if err != nil {
			return err
		}
		initInternal(data)
		intShape.SetCount(data, 1)
		intShape.SetChild(data, 0, root)
		writeIntEntry(data, 0, intEntryMem{key: res.key, child: res.child, psl: pagefile.InvalidPage})
		rejects, err := t.stabReinsertAll(data, res.stabSet)
		if err != nil {
			t.unpin(newRootID, true)
			return err
		}
		if len(rejects) > 0 {
			t.unpin(newRootID, true)
			return fmt.Errorf("%w: %d StabSet' elements not stabbed by new root key", ErrCorrupt, len(rejects))
		}
		if err := t.unpin(newRootID, true); err != nil {
			return err
		}
		t.SetRoot(newRootID, h+1)
	}
	t.count.Add(1)
	if err := t.syncMeta(); err != nil {
		return err
	}
	return t.debugPostMutation()
}

// insertInto inserts e under page id at the given height (1 = leaf). homed
// reports whether e already joined a stab list higher up. The writer's
// descent reads pages without latching (writers are serialized; readers
// only copy); mutations happen inside per-page latch brackets below.
func (t *Tree) insertInto(id pagefile.PageID, height int, e xmldoc.Element, homed bool) (*splitResult, error) {
	data, err := t.fetch(id)
	if err != nil {
		return nil, err
	}
	if height == 1 {
		if !blink.IsLeaf(data) {
			t.unpin(id, false)
			return nil, fmt.Errorf("%w: expected leaf at page %d", ErrCorrupt, id)
		}
		return t.insertLeaf(id, data, e, homed)
	}

	dirty := false
	// I1: home e in the highest stabbing node. The stab-chain mutation is
	// covered by the node's exclusive latch.
	if !homed && primaryKeyIndex(data, e.Start, e.End) >= 0 {
		t.pl.Lock(id)
		err := t.stabInsertElement(data, e)
		t.pl.Unlock(id)
		if err != nil {
			t.unpin(id, true)
			return nil, err
		}
		homed = true
		dirty = true
	}
	ci := intShape.Search(data, e.Start)
	child := intShape.Child(data, ci)
	res, err := t.insertInto(child, height-1, e, homed)
	if err != nil {
		t.unpin(id, dirty)
		return nil, err
	}
	if res == nil {
		return nil, t.unpin(id, dirty)
	}
	return t.insertInternalEntry(id, data, ci, res)
}

// insertLeaf inserts e into a pinned leaf, consuming the pin. The element's
// InStabList flag mirrors whether it was homed above (Definition 4.6).
func (t *Tree) insertLeaf(id pagefile.PageID, data []byte, e xmldoc.Element, homed bool) (*splitResult, error) {
	n := blink.LeafCount(data)
	pos := blink.LeafSearch(data, e.Start)
	if pos < n && blink.LeafKey(data, pos) == e.Start {
		t.unpin(id, false)
		return nil, fmt.Errorf("%w: start %d", ErrDuplicate, e.Start)
	}
	var flags uint16
	if homed {
		flags = xmldoc.FlagInStabList
	}
	if n < t.leafCap {
		t.pl.Lock(id)
		blink.InsertLeafEntry(data, pos, n, e, flags)
		t.pl.Unlock(id)
		return nil, t.unpin(id, true)
	}

	// I22: split the leaf. The new right page is populated — upper half,
	// chain pointers, inherited high key — while unreachable.
	newID, newData, err := t.fetchNew()
	if err != nil {
		t.unpin(id, false)
		return nil, err
	}
	blink.InitLeaf(newData)
	mid := n / 2
	moved := n - mid
	copy(newData[blink.LeafHeader:], data[blink.LeafHeader+mid*xmldoc.EncodedSize:blink.LeafHeader+n*xmldoc.EncodedSize])
	blink.SetLeafCount(newData, moved)
	oldNext := blink.LeafNext(data)
	blink.SetLeafNext(newData, oldNext)
	blink.SetLeafPrev(newData, id)
	blink.SetLeafHigh(newData, blink.LeafHigh(data))

	// The split raises StabSet' flags on elements that are not yet in the
	// parent's chain: a stab move is now in flight until the enclosing
	// Insert commits.
	t.beginStabMove()

	// The latched split write: shrink the left half, place e, choose the
	// separator, raise the StabSet' flags in both halves, and install the
	// right link and high key last — a reader sees the pre-split page or a
	// left half whose high key routes keys ≥ sep through the new link. The
	// right half is still private here, so its mutations ride inside the
	// same bracket without a latch of their own.
	t.pl.Lock(id)
	blink.SetLeafCount(data, mid)
	if e.Start < blink.LeafKey(newData, 0) {
		blink.InsertLeafEntry(data, pos, mid, e, flags)
	} else {
		npos := blink.LeafSearch(newData, e.Start)
		blink.InsertLeafEntry(newData, npos, moved, e, flags)
	}

	// Choose the separator (§3.2 key choice): prefer firstRight−1, which
	// avoids stabbing the right half's first element, when it still
	// separates the halves.
	firstRight := blink.LeafKey(newData, 0)
	lastLeft := blink.LeafKey(data, blink.LeafCount(data)-1)
	sep := firstRight
	if !t.opts.DisableKeyChoice && firstRight-1 > lastLeft {
		sep = firstRight - 1
	}

	// StabSet': elements of either half newly stabbed by sep get their
	// flags turned to yes and move to the parent's stab list.
	var stabSet []stabEntry
	collect := func(d []byte) {
		cnt := blink.LeafCount(d)
		for i := 0; i < cnt; i++ {
			el, fl := blink.LeafElem(d, i)
			if fl&xmldoc.FlagInStabList != 0 {
				continue
			}
			if el.Start <= sep && sep <= el.End {
				blink.SetLeafFlags(d, i, fl|xmldoc.FlagInStabList)
				stabSet = append(stabSet, stabEntry{
					key: sep, start: el.Start, end: el.End, ref: el.Ref, level: el.Level,
				})
			}
		}
	}
	collect(data)
	collect(newData)
	blink.SetLeafNext(data, newID)
	blink.SetLeafHigh(data, sep)
	t.pl.Unlock(id)

	// Fix the old right neighbor's back pointer (scans only follow next,
	// so this can be its own latched write after the split is visible).
	if oldNext != pagefile.InvalidPage {
		nd, err := t.fetch(oldNext)
		if err == nil {
			t.pl.Lock(oldNext)
			blink.SetLeafPrev(nd, newID)
			t.pl.Unlock(oldNext)
			err = t.unpin(oldNext, true)
		}
		if err != nil {
			t.unpin(newID, true)
			t.unpin(id, true)
			return nil, err
		}
	}

	if err := t.unpin(newID, true); err != nil {
		t.unpin(id, true)
		return nil, err
	}
	if err := t.unpin(id, true); err != nil {
		return nil, err
	}
	return &splitResult{key: sep, child: newID, stabSet: stabSet}, nil
}

// insertInternalEntry applies a child split's promotion to the pinned
// internal node at child index ci, consuming the pin. It splits the node —
// and its stab-list chain — on overflow (I32). The node's latch is held
// for the whole mutation: the directory rewrite and every stab-chain
// movement are invisible to readers until the latch drops, so a reader
// never observes a stab list mid-migration.
func (t *Tree) insertInternalEntry(id pagefile.PageID, data []byte, ci int, res *splitResult) (*splitResult, error) {
	m := intShape.Count(data)
	if m < t.intCap {
		t.pl.Lock(id)
		insertIntEntry(data, ci, m, res.key, res.child)
		// Existing stab entries now primarily stabbed by the new key move
		// into its PSL (the successor PSL's stabbed prefix).
		var rejects []stabEntry
		err := t.rekeyStabbedPrefix(data, ci)
		if err == nil {
			rejects, err = t.stabReinsertAll(data, res.stabSet)
		}
		t.pl.Unlock(id)
		if err != nil {
			t.unpin(id, true)
			return nil, err
		}
		if len(rejects) > 0 {
			t.unpin(id, true)
			return nil, fmt.Errorf("%w: %d StabSet' elements not stabbed at node %d", ErrCorrupt, len(rejects), id)
		}
		return nil, t.unpin(id, true)
	}

	// Gather entries with the new one in place (reads only, no latch yet).
	entries := make([]intEntryMem, 0, m+1)
	for i := 0; i < m; i++ {
		entries = append(entries, readIntEntry(data, i))
	}
	newEntry := intEntryMem{key: res.key, child: res.child, psl: pagefile.InvalidPage}
	entries = append(entries[:ci], append([]intEntryMem{newEntry}, entries[ci:]...)...)

	total := m + 1
	mid := total / 2
	promoted := entries[mid]
	midKey := promoted.key

	// Allocate the right node before latching so the allocation error path
	// needs no unlock.
	newID, newData, err := t.fetchNew()
	if err != nil {
		t.unpin(id, true)
		return nil, err
	}
	initInternal(newData)
	child0 := intShape.Child(data, 0)

	// Splitting the node moves chain content between halves and extracts
	// the promoted key's elements for the parent: a stab move in flight.
	t.beginStabMove()
	t.pl.Lock(id)
	outSet, lerr := func() ([]stabEntry, error) {
		// Extract PSL(midKey) before rewriting the node: those elements
		// rise with the promoted key. When the promoted key is the
		// brand-new one its PSL is empty and there is nothing to extract.
		var outSet []stabEntry
		if j := keyIndex(data, midKey); j >= 0 {
			ext, err := t.extractPSL(data, j)
			if err != nil {
				return nil, err
			}
			outSet = append(outSet, ext...)
		}

		// Lay out both halves; the right node inherits the left's link and
		// high key, the left's new high key is the promoted separator.
		right := entries[mid+1:]
		intShape.SetCount(newData, len(right))
		intShape.SetChild(newData, 0, promoted.child)
		for i, en := range right {
			writeIntEntry(newData, i, en)
		}
		intShape.SetNext(newData, intShape.Next(data))
		intShape.SetHigh(newData, intShape.High(data))

		intShape.SetCount(data, mid)
		intShape.SetChild(data, 0, child0)
		for i := 0; i < mid; i++ {
			writeIntEntry(data, i, entries[i])
		}
		intShape.SetNext(data, newID)
		intShape.SetHigh(data, midKey)

		// Split the stab chain between the halves (Figure 5(a)).
		if err := t.splitStabChain(data, newData, midKey); err != nil {
			return nil, err
		}

		// Route the incoming StabSet' to the half holding the incoming
		// key, and re-key that half's entries now primarily stabbed by it.
		// If the incoming key itself was promoted, its stab set rises.
		if res.key == midKey {
			outSet = append(outSet, res.stabSet...)
		} else {
			half := data
			if res.key > midKey {
				half = newData
			}
			if ki := keyIndex(half, res.key); ki >= 0 {
				if err := t.rekeyStabbedPrefix(half, ki); err != nil {
					return nil, err
				}
			}
			rejects, err := t.stabReinsertAll(half, res.stabSet)
			if err != nil {
				return nil, err
			}
			if len(rejects) > 0 {
				return nil, fmt.Errorf("%w: %d StabSet' elements lost in split", ErrCorrupt, len(rejects))
			}
		}

		// Elements of either half stabbed by the promoted key rise as well
		// (Figure 5(b)): the stabbed prefixes of the remaining PSLs.
		for _, half := range [][]byte{data, newData} {
			ext, err := t.extractStabbedBy(half, midKey)
			if err != nil {
				return nil, err
			}
			outSet = append(outSet, ext...)
		}
		return outSet, nil
	}()
	t.pl.Unlock(id)
	if lerr != nil {
		t.unpin(newID, true)
		t.unpin(id, true)
		return nil, lerr
	}

	if err := t.unpin(newID, true); err != nil {
		t.unpin(id, true)
		return nil, err
	}
	if err := t.unpin(id, true); err != nil {
		return nil, err
	}
	return &splitResult{key: midKey, child: newID, stabSet: outSet}, nil
}
