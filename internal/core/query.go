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
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

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
func (t *Tree) FindAncestors(sd uint32, minStart uint32, c *metrics.Counters) ([]xmldoc.Element, error) {
	return t.AppendAncestors(nil, sd, minStart, c)
}

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
			// A writer is mid-move; its bracket closes at operation commit.
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
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	return t.appendAncestorsOnce(dst, sd, minStart, c)
}

// appendAncestorsOnce is one optimistic probe; see AppendAncestors.
func (t *Tree) appendAncestorsOnce(dst []xmldoc.Element, sd uint32, minStart uint32, c *metrics.Counters) ([]xmldoc.Element, error) {
	out := dst
	id, h := t.loadRoot()
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
		if isLeaf(d) {
			if moveRight(leafHigh(d), leafNext(d), sd) {
				next := leafNext(d)
				err := t.pool.Unpin(id, false)
				t.pl.RUnlock(id)
				if err != nil {
					return nil, err
				}
				if err := c.Interrupted(); err != nil {
					return nil, err
				}
				addLeaf(c)
				id = next
				continue
			}
			data = d // stays pinned and share-latched for the S2 scan
			break
		}
		if d[0] != internalType {
			t.pool.Unpin(id, false)
			t.pl.RUnlock(id)
			return nil, fmt.Errorf("%w: expected node at page %d", ErrCorrupt, id)
		}
		addNode(c)
		if moveRight(intHigh(d), intNext(d), sd) {
			next := intNext(d)
			err := t.pool.Unpin(id, false)
			t.pl.RUnlock(id)
			if err != nil {
				return nil, err
			}
			if err := c.Interrupted(); err != nil {
				return nil, err
			}
			id = next
			continue
		}
		// S11: collect stabbed elements from this node's stab list.
		if err := t.searchStabList(d, sd, minStart, c, &out); err != nil {
			t.pool.Unpin(id, false)
			t.pl.RUnlock(id)
			return nil, err
		}
		// S12/S13: descend by the largest key ≤ sd.
		child := intChild(d, intSearch(d, sd))
		err = t.pool.Unpin(id, false)
		t.pl.RUnlock(id)
		if err != nil {
			return nil, err
		}
		id = child
	}

	// S2: the leaf's own entries whose flag is clear; the stabbed ones were
	// collected from the stab lists above.
	addLeaf(c)
	c.Emit(obs.EvIndexDescend, int64(h))
	out, examined := t.leafAncestors(data, sd, minStart, false, out, c)
	c.Emit(obs.EvLeafScan, int64(examined))
	c.Emit(obs.EvAncProbe, int64(len(out)-len(dst)))
	err := t.pool.Unpin(id, false)
	t.pl.RUnlock(id)
	if err != nil {
		return nil, err
	}
	// Only the appended tail needs ordering; dst's prefix is untouched.
	slices.SortFunc(out[len(dst):], func(a, b xmldoc.Element) int { return cmp.Compare(a.Start, b.Start) })
	return out, nil
}

// leafAncestors is Algorithm 4's S2 loop over one leaf image: it appends
// the entries with start in (minStart, sd) that strictly contain sd and
// returns how many entries it examined. Entries at or before minStart
// cannot be results, so the scan starts right after it — the "ancestors
// after the stack top" variation of §5.2 that keeps the per-probe cost at
// O(new ancestors + elements between the stack top and sd in this leaf)
// rather than half a leaf. Entries flagged InStabList are skipped unless
// stabbed is set: a descent has already collected those from the stab
// lists on its path.
//
// Elements-scanned accounting (the Table 2/3 metric): FindAncestors
// charges exactly the ancestors it retrieves — the R of Theorem 4.
// In-page positioning reads (closed subtrees jumped via their End, the
// terminal boundary entry) cost no I/O and are index work, which is how
// the paper's XR numbers behave (≈ joined ancestors + consumed
// descendants; see EXPERIMENTS.md).
func (t *Tree) leafAncestors(data []byte, sd, minStart uint32, stabbed bool, out []xmldoc.Element, c *metrics.Counters) ([]xmldoc.Element, int) {
	n := leafCount(data)
	examined := 0
	for i := leafSearch(data, minStart+1); i < n; {
		examined++
		el, fl := leafElem(data, i)
		if el.Start >= sd {
			break
		}
		if el.End <= sd {
			// el closes at or before sd, so by strict nesting nothing
			// inside el can strictly contain sd either: skip its whole
			// subtree within this leaf.
			i = leafSearch(data, el.End+1)
			continue
		}
		if (stabbed || fl&xmldoc.FlagInStabList == 0) && el.Start > minStart {
			el.DocID = t.docID
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
func (t *Tree) searchStabList(node []byte, sd uint32, minStart uint32, c *metrics.Counters, out *[]xmldoc.Element) error {
	m := intCount(node)
	i := intSearch(node, sd) - 1 // largest key ≤ sd
	hi := i + 1
	if hi >= m {
		hi = m - 1
	}
	for i2 := hi; i2 >= 0; i2-- {
		ps := keyPS(node, i2)
		if ps == 0 || !(ps < sd && sd < keyPE(node, i2)) {
			continue
		}
		before := len(*out)
		if err := t.scanPSL(node, i2, sd, minStart, c, out); err != nil {
			return err
		}
		c.Emit(obs.EvStabScan, int64(len(*out)-before))
	}
	return nil
}

// scanPSL walks PSL(c) from its directory pointer, emitting elements while
// they stab sd (line 4 of Algorithm 5). Entries at or before minStart are
// already known to the caller (they are on the join's stack), and since a
// PSL is start-sorted they can be jumped over with an in-page binary search
// rather than scanned — the stabbed, still-unreported elements form a
// contiguous run ending at the first non-stabbing entry.
//
// The caller holds the owning node's shared page latch, which is what makes
// the chain walk safe against concurrent writers: stab pages carry no latch
// of their own, and every chain mutation happens under the node's exclusive
// latch. Fetches and unpins here are the plain pool calls — this is a
// reader path and must not touch the writer's t.tx.
func (t *Tree) scanPSL(node []byte, ki int, sd uint32, minStart uint32, c *metrics.Counters, out *[]xmldoc.Element) error {
	kv := intKey(node, ki)
	p := keyPSLPage(node, ki)
	for p != pagefile.InvalidPage {
		// A PSL chain grows with the document (deep nesting under one
		// key), so the walk polls for cancellation at page granularity
		// like every other unbounded read path.
		if err := c.Interrupted(); err != nil {
			return err
		}
		data, err := t.fetchStabRead(p, c.TraceSink())
		if err != nil {
			return err
		}
		addStabPage(c)
		n := stabCount(data)
		i := stabLowerBound(data, kv, minStart+1)
		for ; i < n; i++ {
			en := stabEntryAt(data, i)
			if en.key != kv {
				return t.pool.Unpin(p, false)
			}
			if !(en.start < sd && sd < en.end) {
				// Terminal entry of the stabbed prefix: free, as in S2.
				return t.pool.Unpin(p, false)
			}
			addScan(c, 1)
			*out = append(*out, en.element(t.docID))
		}
		next := stabNext(data)
		if err := t.pool.Unpin(p, false); err != nil {
			return err
		}
		p = next
	}
	return nil
}

// stabLowerBound returns the index of the first entry on the page with
// (key, start) ≥ (kv, start), by binary search.
func stabLowerBound(data []byte, kv, start uint32) int {
	lo, hi := 0, stabCount(data)
	for lo < hi {
		mid := (lo + hi) / 2
		en := stabEntryAt(data, mid)
		if stabLess(en.key, en.start, kv, start) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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

// pageBufs pools the per-iterator leaf-copy buffers as *[]byte, so Seek
// and Close move the same pointer in and out of the pool and allocate
// nothing.
var pageBufs sync.Pool

func getPageBuf(n int) *[]byte {
	if p, _ := pageBufs.Get().(*[]byte); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	b := make([]byte, n)
	return &b
}

// errClosed is returned by a seek on an iterator that was already closed.
var errClosed = errors.New("xrtree: seek on a closed iterator")

// Iterator walks leaf entries in ascending start order. It owns a private
// copy of the current leaf, so it holds no page pin and no tree latch
// between calls: any number of iterators — including several on one tree
// within a single goroutine, as self-joins require — coexist with point
// queries and with writers queued on the latch. A scan racing a concurrent
// Delete's page merge may observe a recycled page; that is detected
// (ErrCorrupt) rather than latched away. Close returns the copy to a pool.
//
// SeekGE and AppendAncestors answer from the held copy when it covers the
// keys asked about (a finger), so a join that repositions its cursor on
// every step descends from the root only when it leaves the leaf. Like
// Next and Peek, a finger answer reads the leaf as of its copy.
type Iterator struct {
	t    *Tree
	c    *metrics.Counters
	bufp *[]byte // pooled buffer; buf is *bufp
	buf  []byte
	idx  int
	err  error
	done bool
}

// readPage copies page id into buf under its shared page latch. The copy
// decouples the caller from writers: once the latch is dropped the bytes
// are private, so no pin or latch outlives the call.
func (t *Tree) readPage(id pagefile.PageID, buf []byte, c *metrics.Counters) error {
	t.pl.RLock(id)
	err := t.pool.FetchCopyTraced(id, buf, c.TraceSink())
	t.pl.RUnlock(id)
	return err
}

// descendToLeafCopy runs the B-link root-to-leaf descent for key and
// leaves a private copy of the leaf that covers key in buf. Each step
// holds one shared page latch only while copying; a key at or beyond a
// page's high key follows the right link (a concurrent split moved the
// range) instead of restarting.
func (t *Tree) descendToLeafCopy(key uint32, c *metrics.Counters, buf []byte) error {
	id, h := t.loadRoot()
	//xrvet:bounded root-to-leaf descent, h levels plus finitely many right hops
	for {
		if err := t.readPage(id, buf, c); err != nil {
			return err
		}
		if isLeaf(buf) {
			if moveRight(leafHigh(buf), leafNext(buf), key) {
				if err := c.Interrupted(); err != nil {
					return err
				}
				addLeaf(c)
				id = leafNext(buf)
				continue
			}
			addLeaf(c)
			c.Emit(obs.EvIndexDescend, int64(h))
			return nil
		}
		if buf[0] != internalType {
			return fmt.Errorf("%w: expected node at page %d", ErrCorrupt, id)
		}
		addNode(c)
		if moveRight(intHigh(buf), intNext(buf), key) {
			if err := c.Interrupted(); err != nil {
				return err
			}
			id = intNext(buf)
			continue
		}
		id = intChild(buf, intSearch(buf, key))
	}
}

// SeekGE returns an iterator positioned at the first element with
// start ≥ key. FindDescendants and the XR-stack skip operations are built
// on it.
func (t *Tree) SeekGE(key uint32, c *metrics.Counters) (*Iterator, error) {
	if err := c.Interrupted(); err != nil {
		return nil, err
	}
	bufp := getPageBuf(t.pool.File().PageSize())
	if err := t.descendToLeafCopy(key, c, *bufp); err != nil {
		pageBufs.Put(bufp)
		return nil, err
	}
	t.hintNextLeaf(c, *bufp)
	return &Iterator{t: t, c: c, bufp: bufp, buf: *bufp, idx: leafSearch(*bufp, key)}, nil
}

// holds reports whether the leaf copy is the leaf a descent would land on
// for every key in [lo, hi]: lo is at or after the copy's first entry and
// hi is below its B-link high key, or the copy is the rightmost leaf.
func (it *Iterator) holds(lo, hi uint32) bool {
	return it.buf != nil && it.err == nil && leafCount(it.buf) > 0 &&
		lo >= leafKey(it.buf, 0) && !moveRight(leafHigh(it.buf), leafNext(it.buf), hi)
}

// Holds reports whether SeekGE(key) would be answered from the held leaf
// copy without a descent.
func (it *Iterator) Holds(key uint32) bool { return it.holds(key, key) }

// SeekGE repositions the iterator at the first element with start ≥ key:
// a finger seek. When the held leaf copy covers key it binary-searches in
// place; otherwise it re-descends from the root into the same buffer.
// Neither path allocates.
func (it *Iterator) SeekGE(key uint32) error {
	if it.err != nil {
		return it.err
	}
	if it.buf == nil {
		return errClosed
	}
	hit := it.Holds(key)
	it.c.CountFinger(hit)
	if !hit {
		if err := it.c.Interrupted(); err != nil {
			it.err = err
			return err
		}
		if err := it.t.descendToLeafCopy(key, it.c, it.buf); err != nil {
			it.err = err
			return err
		}
		it.t.hintNextLeaf(it.c, it.buf)
	}
	it.idx = leafSearch(it.buf, key)
	it.done = false
	return nil
}

// AppendAncestors is Tree.AppendAncestors answered from the held leaf copy
// when it can be. If every start in (minStart, sd) lies inside the copy,
// the ancestors are exactly the copy's entries in that range that contain
// sd — every element has a leaf entry, stab-listed ones included — so
// Algorithm 4's S2 loop over the copy finds them without a descent or a
// stab-list read. Otherwise it falls back to Tree.AppendAncestors. The
// iterator's position is unchanged either way.
func (it *Iterator) AppendAncestors(dst []xmldoc.Element, sd, minStart uint32) ([]xmldoc.Element, error) {
	hit := it.holds(minStart+1, sd-1)
	it.c.CountFinger(hit)
	if !hit {
		return it.t.AppendAncestors(dst, sd, minStart, it.c)
	}
	out, examined := it.t.leafAncestors(it.buf, sd, minStart, true, dst, it.c)
	it.c.Emit(obs.EvLeafScan, int64(examined))
	it.c.Emit(obs.EvAncProbe, int64(len(out)-len(dst)))
	return out, nil
}

// hintNextLeaf publishes the chained next leaf to the pool's prefetcher,
// so a leaf-chain scan's I/O overlaps the scan of the current leaf.
func (t *Tree) hintNextLeaf(c *metrics.Counters, buf []byte) {
	if t.pool.PrefetchEnabled() {
		if next := leafNext(buf); next != pagefile.InvalidPage {
			t.pool.Prefetch(c, next)
		}
	}
}

// PrefetchGE publishes a readahead hint for the landing page of a future
// SeekGE(key) or AppendAncestors(key) — the XR-stack join calls it for a
// skip target before starting the stab-list work that precedes the skip,
// so the landing page's I/O overlaps the in-flight probe. The descent
// walks resident pages only (no I/O, no pins held across pages, no
// hit/miss accounting) and hints the first non-resident page on the path.
func (t *Tree) PrefetchGE(key uint32, c *metrics.Counters) {
	if !t.pool.PrefetchEnabled() {
		return
	}
	bufp := getPageBuf(t.pool.File().PageSize())
	defer pageBufs.Put(bufp)
	buf := *bufp
	id, h := t.loadRoot()
	//xrvet:bounded advisory root-to-leaf descent, at most h iterations
	for level := h; level > 1; level-- {
		// Advisory path: on latch contention just hint the page reached so
		// far rather than waiting behind a writer.
		if !t.pl.TryRLock(id) {
			break
		}
		ok, err := t.pool.TryFetchCopy(id, buf)
		t.pl.RUnlock(id)
		if err != nil || !ok || isLeaf(buf) {
			break
		}
		id = intChild(buf, intSearch(buf, key))
	}
	// id is the first page the future probe will miss on (or its leaf).
	t.pool.Prefetch(c, id)
}

// Scan returns an iterator over the whole indexed set.
func (t *Tree) Scan(c *metrics.Counters) (*Iterator, error) { return t.SeekGE(0, c) }

// Next returns the next element; each returned element counts as scanned.
func (it *Iterator) Next() (xmldoc.Element, bool) {
	if it.err != nil || it.done {
		return xmldoc.Element{}, false
	}
	for {
		if it.idx < leafCount(it.buf) {
			e, _ := leafElem(it.buf, it.idx)
			e.DocID = it.t.docID
			it.idx++
			addScan(it.c, 1)
			return e, true
		}
		if !it.advancePage() {
			return xmldoc.Element{}, false
		}
	}
}

// Peek returns the element Next would return without consuming it and
// without counting a scan.
func (it *Iterator) Peek() (xmldoc.Element, bool) {
	if it.err != nil || it.done {
		return xmldoc.Element{}, false
	}
	for it.idx >= leafCount(it.buf) {
		if !it.advancePage() {
			return xmldoc.Element{}, false
		}
	}
	e, _ := leafElem(it.buf, it.idx)
	e.DocID = it.t.docID
	return e, true
}

// advancePage replaces the iterator's leaf copy with the next leaf on the
// chain, taking only that page's shared latch for the hop.
func (it *Iterator) advancePage() bool {
	next := leafNext(it.buf)
	if next == pagefile.InvalidPage {
		it.done = true
		return false
	}
	// Page boundary: the natural cancellation point of a leaf-chain scan.
	if err := it.c.Interrupted(); err != nil {
		it.err = err
		return false
	}
	if err := it.t.readPage(next, it.buf, it.c); err != nil {
		it.err = err
		return false
	}
	if !isLeaf(it.buf) {
		// The page was merged away and recycled between hops.
		it.err = fmt.Errorf("%w: leaf chain broken at page %d by a concurrent structural change", ErrCorrupt, next)
		return false
	}
	it.t.hintNextLeaf(it.c, it.buf)
	it.idx = 0
	if it.c != nil {
		it.c.LeafReads++
	}
	return true
}

// Err returns the first iteration error.
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator's page copy; safe to call repeatedly.
func (it *Iterator) Close() error {
	if it.bufp != nil {
		pageBufs.Put(it.bufp)
		it.bufp, it.buf = nil, nil
	}
	return it.err
}

// FindDescendants returns every indexed element strictly inside (sa, ea):
// Algorithm 3, a range query over start positions.
func (t *Tree) FindDescendants(sa, ea uint32, c *metrics.Counters) ([]xmldoc.Element, error) {
	it, err := t.SeekGE(sa+1, c)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []xmldoc.Element
	for {
		e, ok := it.Next()
		if !ok || e.Start >= ea {
			break
		}
		out = append(out, e)
	}
	return out, it.Err()
}

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
