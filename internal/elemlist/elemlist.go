// Package elemlist stores a start-sorted element set as a chain of packed
// pages — the representation the no-index structural-join algorithms scan.
// It is the on-disk analogue of the paper's "two input lists, AList … and
// DList …, sorted on their start values".
//
// A List is immutable after Build. Iteration goes through the buffer pool
// so sequential scans cost page misses exactly the way the paper accounts
// them, and every element examined increments the ElementsScanned counter.
package elemlist

import (
	"encoding/binary"
	"errors"
	"fmt"

	"xrtree/internal/bufferpool"
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

var le = binary.LittleEndian

// Page layout:
//
//	offset 0:  count   u16 — elements on this page
//	offset 2:  pad     u16
//	offset 4:  next    u32 — PageID of the next page (InvalidPage at end)
//	offset 8:  entries count × xmldoc.EncodedSize
const (
	headerSize = 8
	offCount   = 0
	offNext    = 4
)

// ErrEmptyList is returned by Build for an empty element slice.
var ErrEmptyList = errors.New("elemlist: cannot build an empty list")

// List is an immutable on-disk element list.
type List struct {
	pool    *bufferpool.Pool
	head    pagefile.PageID
	numElem int
	pages   int
	docID   uint32
	perPage int
	// pageIDs maps page ordinal → PageID for direct positional access
	// (ScanAt); populated by Build and lazily by Open.
	pageIDs []pagefile.PageID
}

// Build writes es (which must be sorted by Start) into a new list of pages
// allocated from pool's file. All elements must share one DocID.
func Build(pool *bufferpool.Pool, es []xmldoc.Element) (*List, error) {
	if len(es) == 0 {
		return nil, ErrEmptyList
	}
	perPage := (pool.File().PageSize() - headerSize) / xmldoc.EncodedSize
	if perPage < 1 {
		return nil, fmt.Errorf("elemlist: page size %d too small", pool.File().PageSize())
	}
	docID := es[0].DocID
	for i := 1; i < len(es); i++ {
		if es[i-1].Start >= es[i].Start {
			return nil, fmt.Errorf("elemlist: elements not sorted by start at %d", i)
		}
		if es[i].DocID != docID {
			return nil, fmt.Errorf("elemlist: mixed DocIDs %d and %d", docID, es[i].DocID)
		}
	}

	// Unlogged bulk construction; durability comes from the store's save.
	pool.BeginUnlogged()
	defer pool.EndUnlogged()

	l := &List{pool: pool, numElem: len(es), docID: docID, perPage: perPage}
	var prevID pagefile.PageID
	var prevData []byte
	for off := 0; off < len(es); off += perPage {
		id, data, err := pool.FetchNew()
		if err != nil {
			return nil, err
		}
		n := len(es) - off
		if n > perPage {
			n = perPage
		}
		le.PutUint16(data[offCount:], uint16(n))
		le.PutUint32(data[offNext:], uint32(pagefile.InvalidPage))
		for i := 0; i < n; i++ {
			es[off+i].Encode(data[headerSize+i*xmldoc.EncodedSize:], 0)
		}
		if prevData != nil {
			le.PutUint32(prevData[offNext:], uint32(id))
			if err := pool.Unpin(prevID, true); err != nil {
				pool.Unpin(id, false) // abandon the page fetched this iteration
				return nil, err
			}
		} else {
			l.head = id
		}
		prevID, prevData = id, data
		l.pageIDs = append(l.pageIDs, id)
		l.pages++
	}
	if err := pool.Unpin(prevID, true); err != nil {
		return nil, err
	}
	return l, nil
}

// Open reattaches to a list previously created by Build, given its head
// page, element count, page count and document id (the values a catalog
// persists).
func Open(pool *bufferpool.Pool, head pagefile.PageID, numElem, pages int, docID uint32) (*List, error) {
	perPage := (pool.File().PageSize() - headerSize) / xmldoc.EncodedSize
	if perPage < 1 {
		return nil, fmt.Errorf("elemlist: page size %d too small", pool.File().PageSize())
	}
	if head == pagefile.InvalidPage || numElem <= 0 || pages <= 0 {
		return nil, fmt.Errorf("elemlist: invalid list handle (head=%d n=%d pages=%d)", head, numElem, pages)
	}
	return &List{pool: pool, head: head, numElem: numElem, pages: pages, docID: docID, perPage: perPage}, nil
}

// Len returns the number of elements in the list.
func (l *List) Len() int { return l.numElem }

// Pages returns the number of pages the list occupies.
func (l *List) Pages() int { return l.pages }

// DocID returns the document id shared by all elements.
func (l *List) DocID() uint32 { return l.docID }

// Head returns the first page of the list (for diagnostics).
func (l *List) Head() pagefile.PageID { return l.head }

// Iterator walks the list in start order. It pins at most one page at a
// time; Close releases the current pin.
type Iterator struct {
	list *List
	c    *metrics.Counters

	pageID pagefile.PageID
	data   []byte
	count  int
	idx    int
	err    error

	// pendingIdx/hasPending carry a Restore'd position across the page
	// re-fetch that the next Next performs.
	pendingIdx int
	hasPending bool
}

// Scan returns an iterator positioned before the first element. The
// counters c (may be nil) receive ElementsScanned and LeafReads increments.
func (l *List) Scan(c *metrics.Counters) *Iterator {
	return &Iterator{list: l, c: c, pageID: l.head, idx: -1}
}

// ScanAt returns an iterator positioned before the element with the given
// ordinal (0-based), reaching its page directly — the positional access a
// stored record pointer gives, used by the B+sp sibling-pointer join
// variant. Ordinals at or past the end yield an exhausted iterator.
func (l *List) ScanAt(ordinal int, c *metrics.Counters) (*Iterator, error) {
	if ordinal >= l.numElem || ordinal < 0 {
		return &Iterator{list: l, c: c, pageID: pagefile.InvalidPage, idx: -1}, nil
	}
	if err := l.ensurePageIDs(); err != nil {
		return nil, err
	}
	page := ordinal / l.perPage
	it := &Iterator{list: l, c: c, pageID: l.pageIDs[page], idx: -1}
	it.pendingIdx = ordinal%l.perPage - 1
	it.hasPending = true
	return it, nil
}

// ensurePageIDs walks the chain once to build the positional page map
// (needed after Open, which only has the head page).
func (l *List) ensurePageIDs() error {
	if len(l.pageIDs) == l.pages {
		return nil
	}
	l.pageIDs = l.pageIDs[:0]
	p := l.head
	for p != pagefile.InvalidPage {
		l.pageIDs = append(l.pageIDs, p)
		data, err := l.pool.Fetch(p)
		if err != nil {
			return err
		}
		next := pagefile.PageID(le.Uint32(data[offNext:]))
		if err := l.pool.Unpin(p, false); err != nil {
			return err
		}
		p = next
	}
	if len(l.pageIDs) != l.pages {
		return fmt.Errorf("elemlist: chain has %d pages, header says %d", len(l.pageIDs), l.pages)
	}
	return nil
}

// loadPage pins the iterator's current page, applies any pending Restore
// position and counts the leaf read. Returns false when the chain is
// exhausted or on error/cancellation (it.err set).
func (it *Iterator) loadPage() bool {
	if it.pageID == pagefile.InvalidPage {
		return false
	}
	// Page boundary: the cancellation point of a list scan.
	if err := it.c.Interrupted(); err != nil {
		it.err = err
		return false
	}
	data, err := it.list.pool.FetchTraced(it.pageID, it.c.TraceSink())
	if err != nil {
		it.err = err
		return false
	}
	it.data = data
	it.count = int(le.Uint16(data[offCount:]))
	it.idx = -1
	if it.hasPending {
		it.idx = it.pendingIdx
		it.hasPending = false
	}
	if it.c != nil {
		it.c.LeafReads++
	}
	return true
}

// advancePage releases the current page and steps to the chained next one.
func (it *Iterator) advancePage() bool {
	next := pagefile.PageID(le.Uint32(it.data[offNext:]))
	if err := it.list.pool.Unpin(it.pageID, false); err != nil {
		it.err = err
		return false
	}
	it.data = nil
	it.pageID = next
	return true
}

// Next advances to the next element, returning false at the end or on
// error (check Err). Each returned element counts as one scan.
func (it *Iterator) Next() (xmldoc.Element, bool) {
	if !it.positioned() {
		return xmldoc.Element{}, false
	}
	it.idx++
	it.countScan()
	return it.elem(it.idx), true
}

// Peek returns the element Next would return without consuming it and
// without counting a scan.
func (it *Iterator) Peek() (xmldoc.Element, bool) {
	if !it.positioned() {
		return xmldoc.Element{}, false
	}
	return it.elem(it.idx + 1), true
}

// Step is Next followed by Peek in one call: it consumes the next element
// (one scan, as Next counts it) and returns the one after it, decoding
// only that entry. Page hops, and so cancellation polls and leaf reads,
// happen exactly where Next and Peek would make them.
func (it *Iterator) Step() (xmldoc.Element, bool) {
	if !it.positioned() {
		return xmldoc.Element{}, false
	}
	it.idx++
	it.countScan()
	if it.idx+1 < it.count {
		return it.elem(it.idx + 1), true
	}
	return it.Peek()
}

// positioned makes the element after idx readable, pinning the current
// page or hopping along the chain as needed; false at the end or on error.
func (it *Iterator) positioned() bool {
	if it.err != nil {
		return false
	}
	for {
		if it.data == nil && !it.loadPage() {
			return false
		}
		if it.idx+1 < it.count {
			return true
		}
		if !it.advancePage() {
			return false
		}
	}
}

// elem decodes entry i of the pinned page.
func (it *Iterator) elem(i int) xmldoc.Element {
	e, _ := xmldoc.DecodeElement(it.data[headerSize+i*xmldoc.EncodedSize:])
	e.DocID = it.list.docID
	return e
}

func (it *Iterator) countScan() {
	if it.c != nil {
		it.c.ElementsScanned++
	}
}

// Err returns the first error encountered during iteration.
func (it *Iterator) Err() error { return it.err }

// Mark captures the iterator's position so a later Restore can re-scan from
// here. MPMGJN uses this to rewind over the still-joinable region of the
// descendant list — the repeated scanning the paper charges it with.
type Mark struct {
	pageID pagefile.PageID
	idx    int
}

// Mark returns the position of the next element Next would return.
func (it *Iterator) Mark() Mark {
	return Mark{pageID: it.pageID, idx: it.idx}
}

// Restore repositions the iterator at a previously captured Mark. The page
// is re-fetched on the next call to Next, so rescans cost page accesses
// again, as they would on the real storage layout.
func (it *Iterator) Restore(m Mark) error {
	if it.data != nil {
		if err := it.list.pool.Unpin(it.pageID, false); err != nil {
			it.err = err
			return err
		}
		it.data = nil
	}
	it.pageID = m.pageID
	it.idx = m.idx
	// Force a re-fetch positioned so that Next returns entry idx+1 … the
	// stored idx is "last returned", matching Next's post-increment.
	it.pendingIdx = m.idx
	it.hasPending = true
	return nil
}

// Close releases the iterator's page pin. Safe to call multiple times.
func (it *Iterator) Close() error {
	if it.data != nil {
		err := it.list.pool.Unpin(it.pageID, false)
		it.data = nil
		if it.err == nil {
			it.err = err
		}
		return err
	}
	return nil
}
