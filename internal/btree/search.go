package btree

import (
	"errors"
	"fmt"
	"sync"

	"xrtree/internal/metrics"
	"xrtree/internal/obs"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

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
var errClosed = errors.New("btree: seek on a closed iterator")

// readPage copies page id into buf under its shared page latch, so the
// copy cannot be torn by a concurrent writer mutating the frame.
func (t *Tree) readPage(id pagefile.PageID, buf []byte, c *metrics.Counters) error {
	t.pl.RLock(id)
	err := t.pool.FetchCopyTraced(id, buf, c.TraceSink())
	t.pl.RUnlock(id)
	return err
}

// Lookup returns the element whose start equals key, or ErrNotFound, with
// costs attributed to c (nil discards them). Safe for concurrent readers
// and concurrent writers: the descent takes no tree-wide latch.
func (t *Tree) Lookup(key uint32, c *metrics.Counters) (xmldoc.Element, error) {
	bufp := getPageBuf(t.pool.File().PageSize())
	defer pageBufs.Put(bufp)
	buf := *bufp
	if err := t.descendToLeafCopy(key, c, buf); err != nil {
		return xmldoc.Element{}, err
	}
	pos := leafSearch(buf, key)
	if pos < leafCount(buf) && leafKey(buf, pos) == key {
		e := leafElem(buf, pos)
		e.DocID = t.docID
		addScan(c, 1)
		return e, nil
	}
	return xmldoc.Element{}, fmt.Errorf("%w: start %d", ErrNotFound, key)
}

// descendToLeafCopy walks from the root to the leaf covering key, copying
// each visited page into buf under its shared page latch; on return buf
// holds the leaf. This is the B-link descent: it holds one page latch at
// a time, never a tree latch, and recovers from concurrent splits by
// following right links whenever key is at or beyond a page's high key —
// including at the leaf level, where a stale parent may have sent us to a
// freshly split left half. The root snapshot may be stale (a concurrent
// root growth is invisible); that is safe because the old root still
// reaches every key through right links.
func (t *Tree) descendToLeafCopy(key uint32, c *metrics.Counters, buf []byte) error {
	id, h := t.loadRoot()
	//xrvet:bounded root-to-leaf descent: h levels plus one right move per
	// concurrent split outrunning us; cancellation is polled per right move.
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
			return fmt.Errorf("%w: page %d is neither leaf nor internal", ErrCorrupt, id)
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

// Iterator walks leaf entries in ascending start order. It owns a private
// copy of the current leaf, so it holds no pin and no latch between calls:
// any number of iterators — including several on one tree within a single
// goroutine, as self-joins do — coexist with each other and with point
// queries. A scan that races a concurrent Delete's page merge may observe a
// recycled page; that is detected (ErrCorrupt) rather than latched away,
// keeping iterators deadlock-free. Close returns the page copy to a pool.
//
// SeekGE answers from the held copy when it covers the key (a finger), so
// a join that skips with it descends from the root only when it leaves
// the leaf. Like Next and Peek, a finger answer reads the leaf as of its
// copy.
type Iterator struct {
	t    *Tree
	c    *metrics.Counters
	bufp *[]byte // pooled buffer; buf is *bufp
	buf  []byte
	idx  int
	err  error
	done bool
}

// SeekGE returns an iterator positioned at the first element with
// start ≥ key. This is the range-query primitive of the B+ join algorithm.
// Safe for concurrent readers.
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

// Holds reports whether SeekGE(key) would be answered from the held leaf
// copy without a descent: key is at or after the copy's first entry and
// below its B-link high key, or the copy is the rightmost leaf.
func (it *Iterator) Holds(key uint32) bool {
	return it.buf != nil && it.err == nil && leafCount(it.buf) > 0 &&
		key >= leafKey(it.buf, 0) && !moveRight(leafHigh(it.buf), leafNext(it.buf), key)
}

// SeekGE repositions the iterator at the first element with start ≥ key:
// a finger seek. When the held leaf copy covers key it searches in place,
// galloping forward from the cursor; otherwise it re-descends from the
// root into the same buffer and binary-searches the new leaf. Neither
// path allocates.
func (it *Iterator) SeekGE(key uint32) error {
	if it.err != nil {
		return it.err
	}
	if it.buf == nil {
		return errClosed
	}
	hit := it.Holds(key)
	it.c.CountFinger(hit)
	if hit {
		it.idx = leafSearchFrom(it.buf, it.idx, key)
	} else {
		if err := it.c.Interrupted(); err != nil {
			it.err = err
			return err
		}
		if err := it.t.descendToLeafCopy(key, it.c, it.buf); err != nil {
			it.err = err
			return err
		}
		it.t.hintNextLeaf(it.c, it.buf)
		it.idx = leafSearch(it.buf, key)
	}
	it.done = false
	return nil
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

// Scan returns an iterator over the whole tree from the smallest start.
func (t *Tree) Scan(c *metrics.Counters) (*Iterator, error) {
	return t.SeekGE(0, c)
}

// Next returns the next element. Each returned element counts as one
// element scanned. Returns false at the end or on error (check Err).
func (it *Iterator) Next() (xmldoc.Element, bool) {
	if !it.positioned() {
		return xmldoc.Element{}, false
	}
	e := it.elem()
	it.idx++
	addScan(it.c, 1)
	return e, true
}

// Peek returns the element Next would return without consuming it.
func (it *Iterator) Peek() (xmldoc.Element, bool) {
	if !it.positioned() {
		return xmldoc.Element{}, false
	}
	return it.elem(), true
}

// Step is Next followed by Peek in one call: it consumes the current
// element (one scan, as Next counts it) and returns the one after it,
// decoding only that entry. Leaf hops, and so cancellation polls, leaf
// reads and readahead hints, happen exactly where Next and Peek would
// make them.
func (it *Iterator) Step() (xmldoc.Element, bool) {
	if !it.positioned() {
		return xmldoc.Element{}, false
	}
	it.idx++
	addScan(it.c, 1)
	if it.idx < leafCount(it.buf) {
		return it.elem(), true
	}
	return it.Peek()
}

// positioned moves the iterator onto a readable entry, hopping to the next
// leaf while the current one is used up; false at the end or on error.
func (it *Iterator) positioned() bool {
	if it.err != nil || it.done {
		return false
	}
	for it.idx >= leafCount(it.buf) {
		if !it.advancePage() {
			return false
		}
	}
	return true
}

// elem decodes the entry under the cursor.
func (it *Iterator) elem() xmldoc.Element {
	e := leafElem(it.buf, it.idx)
	e.DocID = it.t.docID
	return e
}

// advancePage replaces the iterator's leaf copy with the next leaf on the
// chain, latching the next page for the hop.
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
	t := it.t
	if err := t.readPage(next, it.buf, it.c); err != nil {
		it.err = err
		return false
	}
	if !isLeaf(it.buf) {
		// The page was merged away and recycled between hops.
		it.err = fmt.Errorf("%w: leaf chain broken at page %d by a concurrent structural change", ErrCorrupt, next)
		return false
	}
	t.hintNextLeaf(it.c, it.buf)
	it.idx = 0
	if it.c != nil {
		it.c.LeafReads++
	}
	return true
}

// Err returns the first iteration error.
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator's page copy. Safe to call multiple times.
func (it *Iterator) Close() error {
	if it.bufp != nil {
		pageBufs.Put(it.bufp)
		it.bufp, it.buf = nil, nil
	}
	return it.err
}

// Range returns all elements with start in [lo, hi], a convenience wrapper
// over SeekGE used in tests and examples.
func (t *Tree) Range(lo, hi uint32, c *metrics.Counters) ([]xmldoc.Element, error) {
	it, err := t.SeekGE(lo, c)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []xmldoc.Element
	for {
		e, ok := it.Next()
		if !ok || e.Start > hi {
			break
		}
		out = append(out, e)
	}
	return out, it.Err()
}
