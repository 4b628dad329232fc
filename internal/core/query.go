package core

// §5.1: the two basic operations a structural join needs. FindDescendants
// (Algorithm 3) is a plain range scan over the leaf chain — stab lists are
// never touched — achieving the optimal O(log_F N + R/B) of Theorem 3.
// FindAncestors (Algorithm 4) collects, during the ordinary root→leaf
// descent for the probe position, the stabbed elements from the stab lists
// of the nodes on the path (Algorithm 5), then finishes in the leaf with
// the entries whose InStabList flag is clear; Lemma 1 guarantees this sees
// every ancestor, and the per-key (ps, pe) test guarantees a stab page is
// only read when it holds at least one result — Theorem 4's O(log_F N + R).

import (
	"fmt"
	"runtime"
	"slices"

	"xrtree/internal/blink"
	"xrtree/internal/metrics"
	"xrtree/internal/obs"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// FindAncestors returns every indexed element that is a strict ancestor of
// a region starting at sd — i.e. every element (s, e) with s < sd < e —
// sorted by ascending start. Elements with start ≤ minStart are skipped;
// the XR-stack join passes the stack top's start so only ancestors "after
// the stack top" are returned (§5.2). Pass 0 for all ancestors.
//
// The result is allocated once, with room for findAncestorsCap elements;
// the probe assembles it in start order (see appendAncestorsOnce), so no
// sort runs.
func (t *Tree) FindAncestors(sd uint32, minStart uint32, c *metrics.Counters) ([]xmldoc.Element, error) {
	return t.AppendAncestors(make([]xmldoc.Element, 0, findAncestorsCap), sd, minStart, c)
}

// findAncestorsCap is FindAncestors' initial result capacity: a probe
// with at most this many ancestors allocates once.
const findAncestorsCap = 16

// stabProbeRetries bounds the optimistic ancestor-probe attempts before a
// probe serializes behind the writers for an exact answer.
const stabProbeRetries = 8

// AppendAncestors is FindAncestors appending into dst (reusing its
// capacity), for callers that probe in a loop — the XR-stack join calls it
// once per descendant group.
//
// Probes run latch-crabbing-free and validate the stab-move epoch
// (seqlock style): page latches make each node+chain read atomic, but a
// structural change can move stabbed elements upward between a node the
// probe already visited and one it has not reached yet — no top-down
// single-pass reader can latch that away. A probe overlapping such a move
// discards its result and retries; moves only accompany splits and
// rebalances, so retries are rare even under sustained ingest.
func (t *Tree) AppendAncestors(dst []xmldoc.Element, sd uint32, minStart uint32, c *metrics.Counters) ([]xmldoc.Element, error) {
	if err := c.Interrupted(); err != nil {
		return nil, err
	}
	//xrvet:bounded at most stabProbeRetries optimistic attempts
	for attempt := 0; attempt < stabProbeRetries; attempt++ {
		e1 := t.stabEpoch.Load()
		if e1&1 == 1 {
			// A writer is mid-move; its bracket closes when its page
			// work ends, before its commit waits on the log.
			runtime.Gosched()
			continue
		}
		out, err := t.appendAncestorsOnce(dst, sd, minStart, c)
		if t.stabEpoch.Load() == e1 {
			return out, err
		}
		// A move overlapped the probe (this also covers transient errors
		// from pages recycled by a concurrent merge): discard and retry.
		if err := c.Interrupted(); err != nil {
			return nil, err
		}
	}
	// Sustained churn: serialize behind the writers for an exact answer.
	t.w.Lock()
	defer t.w.Unlock()
	return t.appendAncestorsOnce(dst, sd, minStart, c)
}

// appendAncestorsOnce is one optimistic probe; see AppendAncestors.
//
// It appends in ascending start order without sorting. The descent visits
// the path root first, and an ancestor stab-listed at a deeper node
// contains no key of a shallower one (it would be homed there), so it
// nests inside every ancestor found above it; searchStabList orders each
// node's own results, and the leaf's unflagged ancestors nest inside all
// of them (see leafAncestors).
func (t *Tree) appendAncestorsOnce(dst []xmldoc.Element, sd uint32, minStart uint32, c *metrics.Counters) ([]xmldoc.Element, error) {
	out := dst
	id, h := t.Root()
	var data []byte
	// B-link descent holding one shared page latch at a time. The node's
	// latch covers its stab chain too (writers only mutate a chain under
	// the owning node's exclusive latch), so S11 runs under the latch that
	// the fetch below takes. A key ≥ the node's high key means a concurrent
	// split moved its range right: follow the right link instead of a
	// child — no restart, no tree-wide latch.
	//xrvet:bounded root-to-leaf descent, h levels plus finitely many right hops
	for {
		t.pl.RLock(id)
		d, err := t.pool.FetchTraced(id, c.TraceSink())
		if err != nil {
			t.pl.RUnlock(id)
			return nil, err
		}
		next, slot, mv := intShape.Step(d, sd, c)
		if mv == blink.Land {
			data = d // stays pinned and share-latched for the S2 scan
			break
		}
		if mv == blink.Bad {
			t.pool.Unpin(id, false)
			t.pl.RUnlock(id)
			return nil, fmt.Errorf("%w: page %d is neither leaf nor internal", ErrCorrupt, id)
		}
		// S11: collect stabbed elements from this node's stab list before
		// S12/S13 descend by the largest key ≤ sd.
		if mv == blink.Down {
			if out, err = t.searchStabList(d, slot, sd, minStart, c, out); err != nil {
				t.pool.Unpin(id, false)
				t.pl.RUnlock(id)
				return nil, err
			}
		}
		err = t.pool.Unpin(id, false)
		t.pl.RUnlock(id)
		if err != nil {
			return nil, err
		}
		if mv == blink.Right {
			if err := c.Interrupted(); err != nil {
				return nil, err
			}
		}
		id = next
	}

	// S2: the leaf's own entries whose flag is clear; the stabbed ones were
	// collected from the stab lists above, and the leaf's ancestors all
	// start after the last of them.
	c.Emit(obs.EvIndexDescend, int64(h))
	after := minStart
	if len(out) > len(dst) {
		after = max(after, out[len(out)-1].Start)
	}
	out, examined := t.leafAncestors(data, -1, sd, after, minStart, out, c)
	c.Emit(obs.EvLeafScan, int64(examined))
	c.Emit(obs.EvAncProbe, int64(len(out)-len(dst)))
	err := t.pool.Unpin(id, false)
	t.pl.RUnlock(id)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// leafAncestors is Algorithm 4's S2 loop over one leaf image: it appends
// the entries with start in (minStart, sd) that strictly contain sd and
// returns how many entries it examined. The scan starts at the first
// entry past after (≥ minStart). Entries at or before minStart cannot be
// results: that is the "ancestors after the stack top" variation of §5.2,
// which keeps the per-probe cost at O(new ancestors + elements between
// the stack top and sd in this leaf) rather than half a leaf. A descent
// passes as after the largest start among its stab-list results, since
// no unflagged entry at or before it is an ancestor: an unflagged
// ancestor c containing a stab-listed ancestor a would contain the key
// that stabs a, a key on the root-to-leaf path of c's own start, and so
// would be stab-listed itself. Ancestors nest, so c contains a or starts
// after it.
//
// from says where data came from. An iterator's held copy passes its
// cursor index: the first search gallops from it, and entries flagged
// InStabList count too, since no descent collected them. The leaf a
// descent landed on passes -1: its first search binary-searches the whole
// leaf, and its flagged entries were already collected from the stab
// lists on the descent's path. Every subtree skip gallops forward from
// the entry it skips.
//
// Elements-scanned accounting (the Table 2/3 metric): FindAncestors
// charges exactly the ancestors it retrieves — the R of Theorem 4.
// In-page positioning reads (closed subtrees jumped via their End, the
// terminal boundary entry) cost no I/O and are index work, which is how
// the paper's XR numbers behave (≈ joined ancestors + consumed
// descendants; see EXPERIMENTS.md).
func (t *Tree) leafAncestors(data []byte, from int, sd, after, minStart uint32, out []xmldoc.Element, c *metrics.Counters) ([]xmldoc.Element, int) {
	held := from >= 0
	var i int
	if held {
		i = blink.LeafSearchFrom(data, from, after+1)
	} else {
		i = blink.LeafSearch(data, after+1)
	}
	n := blink.LeafCount(data)
	examined := 0
	for i < n {
		examined++
		el, fl := blink.LeafElem(data, i)
		if el.Start >= sd {
			break
		}
		if el.End <= sd {
			// el closes at or before sd, so by strict nesting nothing
			// inside el can strictly contain sd either: skip its whole
			// subtree within this leaf.
			i = blink.LeafSearchFrom(data, i+1, el.End+1)
			continue
		}
		if (held || fl&xmldoc.FlagInStabList == 0) && el.Start > minStart {
			el.DocID = t.DocID()
			addScan(c, 1)
			out = append(out, el)
		}
		i++
	}
	return out, examined
}

// searchStabList implements Algorithm 5 over the pinned node: with sd in
// [k_i, k_{i+1}), only PSLs of keys ≤ k_{i+1} can hold stabbed elements,
// and a PSL is only read when its in-entry (ps, pe) proves its first —
// outermost — element is stabbed; the stabbed elements then form a prefix.
// slot is the child the descent step chose for sd, so k_{slot−1} is the
// largest key ≤ sd and no key is searched twice. The (ps, pe) fields are
// read in one strided scan, pe first: most keys left of sd have pe ≤ sd.
//
// It appends in ascending start order. The PSLs are read right to left,
// each prefix ascending, but for keys k_i < k_j every element of PSL(k_i)
// starts at or before k_i and every element of PSL(k_j) after it (k_i
// does not stab them, or k_i would be their primary key). So each prefix
// is reversed as it lands, and the node's whole run at the end: the run
// comes out ordered while the stab pages are still read in their old
// order.
func (t *Tree) searchStabList(node []byte, slot int, sd uint32, minStart uint32, c *metrics.Counters, out []xmldoc.Element) ([]xmldoc.Element, error) {
	hi := min(slot, intShape.Count(node)-1)
	stride := intShape.EntrySize
	first := len(out)
	for i2, off := hi, intShape.Header+hi*stride; i2 >= 0; i2, off = i2-1, off-stride {
		if le.Uint32(node[off+offKeyPE:]) <= sd {
			continue
		}
		if ps := le.Uint32(node[off+offKeyPS:]); ps == 0 || ps >= sd {
			continue
		}
		before := len(out)
		var err error
		if out, err = t.scanPSL(node, i2, sd, minStart, c, out); err != nil {
			return out, err
		}
		c.Emit(obs.EvStabScan, int64(len(out)-before))
		slices.Reverse(out[before:])
	}
	slices.Reverse(out[first:])
	return out, nil
}

// scanPSL walks PSL(c) from its directory pointer, appending elements
// while they stab sd (line 4 of Algorithm 5). Entries at or before
// minStart are already known to the caller (they are on the join's
// stack), and since a PSL is start-sorted they can be jumped over with an
// in-page binary search rather than scanned — the stabbed, still-unreported
// elements form a contiguous run ending at the first non-stabbing entry.
//
// The caller holds the owning node's shared page latch, which is what makes
// the chain walk safe against concurrent writers: stab pages carry no latch
// of their own, and every chain mutation happens under the node's exclusive
// latch. Fetches and unpins here are the plain pool calls — this is a
// reader path and must not join the writer's transaction.
func (t *Tree) scanPSL(node []byte, ki int, sd uint32, minStart uint32, c *metrics.Counters, out []xmldoc.Element) ([]xmldoc.Element, error) {
	kv := intShape.Key(node, ki)
	p := keyPSLPage(node, ki)
	for p != pagefile.InvalidPage {
		// A PSL chain grows with the document (deep nesting under one
		// key), so the walk polls for cancellation at page granularity
		// like every other unbounded read path.
		if err := c.Interrupted(); err != nil {
			return out, err
		}
		data, err := t.fetchStabRead(p, c.TraceSink())
		if err != nil {
			return out, err
		}
		addStabPage(c)
		n := stabCount(data)
		i := stabLowerBound(data, kv, minStart+1)
		for ; i < n; i++ {
			en := stabEntryAt(data, i)
			if en.key != kv {
				return out, t.pool.Unpin(p, false)
			}
			if !(en.start < sd && sd < en.end) {
				// Terminal entry of the stabbed prefix: free, as in S2.
				return out, t.pool.Unpin(p, false)
			}
			addScan(c, 1)
			out = append(out, en.element(t.DocID()))
		}
		next := stabNext(data)
		if err := t.pool.Unpin(p, false); err != nil {
			return out, err
		}
		p = next
	}
	return out, nil
}

// FindParent returns the parent (level-aware ancestor, §5.3) of a region
// starting at sd whose level is level−1, if indexed.
func (t *Tree) FindParent(sd uint32, level uint16, c *metrics.Counters) (xmldoc.Element, bool, error) {
	anc, err := t.FindAncestors(sd, 0, c)
	if err != nil {
		return xmldoc.Element{}, false, err
	}
	for _, a := range anc {
		if a.Level == level-1 {
			return a, true, nil
		}
	}
	return xmldoc.Element{}, false, nil
}

// Iterator walks leaf entries in ascending start order: the shared
// copy-on-hop iterator of the read layer (see blink.Iterator), which also
// answers ancestor probes from its held leaf copy.
type Iterator struct {
	blink.Iterator
	t *Tree
}

// SeekGE returns an iterator positioned at the first element with
// start ≥ key. FindDescendants and the XR-stack skip operations are built
// on it.
func (t *Tree) SeekGE(key uint32, c *metrics.Counters) (*Iterator, error) {
	it := &Iterator{t: t}
	if err := t.SeekInto(&it.Iterator, key, c); err != nil {
		return nil, err
	}
	return it, nil
}

// Scan returns an iterator over the whole indexed set.
func (t *Tree) Scan(c *metrics.Counters) (*Iterator, error) { return t.SeekGE(0, c) }

// AppendAncestors is Tree.AppendAncestors answered from the held leaf copy
// when it can be. If every start in (minStart, sd) lies inside the copy,
// the ancestors are exactly the copy's entries in that range that contain
// sd — every element has a leaf entry, stab-listed ones included — so
// Algorithm 4's S2 loop over the copy finds them without a descent or a
// stab-list read; its searches gallop from the cursor. Otherwise it falls
// back to Tree.AppendAncestors. The iterator's position is unchanged
// either way.
func (it *Iterator) AppendAncestors(dst []xmldoc.Element, sd, minStart uint32) ([]xmldoc.Element, error) {
	c := it.Counters()
	hit := it.Covers(minStart+1, sd-1)
	c.CountFinger(hit)
	if !hit {
		return it.t.AppendAncestors(dst, sd, minStart, c)
	}
	leaf, idx := it.Leaf()
	out, examined := it.t.leafAncestors(leaf, idx, sd, minStart, minStart, dst, c)
	c.Emit(obs.EvLeafScan, int64(examined))
	c.Emit(obs.EvAncProbe, int64(len(out)-len(dst)))
	return out, nil
}

// FindDescendants returns every indexed element strictly inside (sa, ea):
// Algorithm 3, a range query over start positions.
//
// The iterator lives on the stack and the result starts with room for
// findDescendantsCap elements, so a probe with at most that many
// descendants allocates once, where a result grown from empty reallocates
// six times on the way to 32 elements.
func (t *Tree) FindDescendants(sa, ea uint32, c *metrics.Counters) ([]xmldoc.Element, error) {
	var it blink.Iterator
	if err := t.SeekInto(&it, sa+1, c); err != nil {
		return nil, err
	}
	defer it.Close()
	out := make([]xmldoc.Element, 0, findDescendantsCap)
	for {
		e, ok := it.Next()
		if !ok || e.Start >= ea {
			break
		}
		out = append(out, e)
	}
	return out, it.Err()
}

// findDescendantsCap is FindDescendants' initial result capacity.
const findDescendantsCap = 32

// FindChildren returns the indexed elements that are children (§5.3) of an
// element (sa, ea) at the given level: descendants with level+1.
func (t *Tree) FindChildren(sa, ea uint32, level uint16, c *metrics.Counters) ([]xmldoc.Element, error) {
	des, err := t.FindDescendants(sa, ea, c)
	if err != nil {
		return nil, err
	}
	out := des[:0]
	for _, d := range des {
		if d.Level == level+1 {
			out = append(out, d)
		}
	}
	return out, nil
}
