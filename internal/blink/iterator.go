package blink

import (
	"errors"
	"fmt"

	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// errClosed is returned by a seek on an iterator that was already closed.
var errClosed = errors.New("blink: seek on a closed iterator")

// Iterator walks leaf entries in ascending start order. It owns a private
// copy of the current leaf, so it holds no page pin and no latch between
// calls: any number of iterators — including several on one tree within
// a single goroutine, as self-joins require — coexist with each other,
// with point queries and with writers. A scan racing a concurrent
// Delete's page merge may hop onto a recycled page. When the page was
// reused as a non-leaf, the scan fails with the owner's ErrCorrupt; when
// it was reused as a leaf, the scan silently continues along the new
// leaf's chain and can skip elements that were present throughout: page
// reuse does not wait for open readers yet (ROADMAP.md tracks the fix).
// Close returns the copy to a pool.
//
// SeekGE answers from the held copy when it covers the key (a finger), so
// a join that repositions its cursor on every step descends from the root
// only when it leaves the leaf. Like Next and Peek, a finger answer reads
// the leaf as of its copy.
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
// start ≥ key: the range-query primitive of the B+ join and of
// FindDescendants.
func (t *Tree) SeekGE(key uint32, c *metrics.Counters) (*Iterator, error) {
	it := new(Iterator)
	if err := t.SeekInto(it, key, c); err != nil {
		return nil, err
	}
	return it, nil
}

// SeekInto is SeekGE into a zero Iterator the caller owns, for tree
// packages whose iterator type embeds this one.
func (t *Tree) SeekInto(it *Iterator, key uint32, c *metrics.Counters) error {
	if err := c.Interrupted(); err != nil {
		return err
	}
	bufp := t.getPageBuf()
	if err := t.descend(key, c, *bufp); err != nil {
		pageBufs.Put(bufp)
		return err
	}
	*it = Iterator{t: t, c: c, bufp: bufp, buf: *bufp, idx: LeafSearch(*bufp, key)}
	return nil
}

// Scan returns an iterator over the whole tree from the smallest start.
func (t *Tree) Scan(c *metrics.Counters) (*Iterator, error) { return t.SeekGE(0, c) }

// Covers reports whether the leaf copy is the leaf a descent would land on
// for every key in [lo, hi]: lo is at or after the copy's first entry and
// hi is below its B-link high key, or the copy is the rightmost leaf.
func (it *Iterator) Covers(lo, hi uint32) bool {
	return it.buf != nil && it.err == nil && LeafCount(it.buf) > 0 &&
		lo >= LeafKey(it.buf, 0) && !moveRight(LeafHigh(it.buf), LeafNext(it.buf), hi)
}

// Leaf returns the held leaf copy and the cursor's index in it, for
// answers computed in place from the copy. The bytes are valid until the
// iterator next moves.
func (it *Iterator) Leaf() ([]byte, int) { return it.buf, it.idx }

// Counters returns the counter set the iterator charges.
func (it *Iterator) Counters() *metrics.Counters { return it.c }

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
	hit := it.Covers(key, key)
	it.c.CountFinger(hit)
	if hit {
		it.idx = LeafSearchFrom(it.buf, it.idx, key)
	} else {
		if err := it.c.Interrupted(); err != nil {
			it.err = err
			return err
		}
		if err := it.t.descend(key, it.c, it.buf); err != nil {
			it.err = err
			return err
		}
		it.idx = LeafSearch(it.buf, key)
	}
	it.done = false
	return nil
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

// Peek returns the element Next would return without consuming it and
// without counting a scan.
func (it *Iterator) Peek() (xmldoc.Element, bool) {
	if !it.positioned() {
		return xmldoc.Element{}, false
	}
	return it.elem(), true
}

// StepInPage is Next followed by Peek when both stay on the held leaf
// copy, small enough to inline: when the entry after the current one is
// on the copy it consumes the current entry (one scan, as Next counts it)
// and returns the copy and the byte offset of that next entry, an
// xmldoc.EncodedSize record whose DocID is the iterator's. Otherwise it
// changes nothing and returns false, and the caller calls Next then Peek,
// which make the leaf hop.
func (it *Iterator) StepInPage() ([]byte, int, bool) {
	if i := it.idx + 1; it.err == nil && !it.done && i < LeafCount(it.buf) {
		it.idx = i
		addScan(it.c, 1)
		return it.buf, LeafHeader + i*xmldoc.EncodedSize, true
	}
	return nil, 0, false
}

// PeekInPage is Peek's in-page half: when the current entry is on the held
// leaf copy it returns the copy and the entry's byte offset; otherwise
// false, and the caller calls Peek.
func (it *Iterator) PeekInPage() ([]byte, int, bool) {
	if it.err == nil && !it.done && it.idx < LeafCount(it.buf) {
		return it.buf, LeafHeader + it.idx*xmldoc.EncodedSize, true
	}
	return nil, 0, false
}

// DocID returns the document id of every element the iterator returns.
func (it *Iterator) DocID() uint32 { return it.t.docID }

// positioned moves the iterator onto a readable entry, hopping to the next
// leaf while the current one is used up; false at the end or on error.
func (it *Iterator) positioned() bool {
	if it.err != nil || it.done {
		return false
	}
	for it.idx >= LeafCount(it.buf) {
		if !it.advancePage() {
			return false
		}
	}
	return true
}

// elem decodes the entry under the cursor.
func (it *Iterator) elem() xmldoc.Element {
	e, _ := LeafElem(it.buf, it.idx)
	e.DocID = it.t.docID
	return e
}

// advancePage replaces the iterator's leaf copy with the next leaf on the
// chain, taking only that page's shared latch for the hop.
func (it *Iterator) advancePage() bool {
	next := LeafNext(it.buf)
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
	if !IsLeaf(it.buf) {
		// The page was merged away and recycled between hops.
		it.err = fmt.Errorf("%w: leaf chain broken at page %d by a concurrent structural change", it.t.corrupt, next)
		return false
	}
	it.idx = 0
	addLeaf(it.c)
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
