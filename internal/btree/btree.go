// Package btree implements the paged B+-tree used by the Anc_Des_B+
// structural-join baseline [Chien et al., VLDB 2002] that the paper
// compares against. It indexes region-encoded elements on their start
// position: leaf pages hold full element entries sorted by start and are
// linked left to right; internal pages hold separator keys and child
// pointers.
//
// The tree is dynamic (insert and delete with split, redistribution and
// merge) and all page access goes through the buffer pool so experiments
// observe page misses. Iterators support SeekGE, the primitive the B+ join
// algorithm uses to skip descendants ("range queries"), and sequential
// scans over the leaf chain.
//
// # Concurrency
//
// The tree uses the B-link protocol (Lehman–Yao): every index page
// carries a high key (the lowest key of its right sibling; 0 = +∞) and a
// right-sibling link in its header. Readers never take a tree-wide latch:
// a descent holds one per-page shared latch at a time (see
// internal/platch) just long enough to copy the page, and recovers from
// a concurrent split by moving right whenever the search key is at or
// beyond the page's high key. Writers serialize against each other on
// wlatch (the WAL transaction state is per-tree) but block readers only
// page by page: every byte mutation of a reader-reachable page happens
// inside that page's exclusive latch, and a split populates the new
// right sibling before the one latched write that shrinks the left page
// and installs its right-link — so readers observe either the pre-split
// page or a well-formed left half whose high key sends them right, never
// a torn page. Iterators work on private leaf copies and re-latch only
// for the hop to the next leaf. Query paths attribute costs to
// caller-supplied counters, never to the shared tree sink.
package btree

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"xrtree/internal/bufferpool"
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/platch"
	"xrtree/internal/xmldoc"
)

// Page layouts.
//
// Meta page (one per tree):
//
//	0: magic u32 | 4: root u32 | 8: height u32 | 12: count u32 | 16: docID u32
//
// Leaf page:
//
//	0: type u8 (=leafType) | 2: count u16 | 4: next u32 | 8: prev u32
//	12: highKey u32 (lowest key of the right sibling; 0 = +∞)
//	16: entries, count × xmldoc.EncodedSize, sorted by start
//
// Internal page:
//
//	0: type u8 (=internalType) | 2: count u16 (number of keys m)
//	4: child0 u32 | 8: next u32 (right sibling) | 12: highKey u32
//	16: entries, m × 8 bytes: key u32 | child u32
//	    (child of entry i is the subtree with keys ≥ key i)
//
// The high key and right link are the B-link fields: a page covers keys
// strictly below its high key, and a reader finding its search key at or
// beyond the high key follows the right link (for leaves, the existing
// chain's next pointer doubles as the right link).
const (
	metaMagic = 0x42545230 // "BTR0"

	leafType     = 1
	internalType = 2

	leafHeader     = 16
	offLeafCount   = 2
	offLeafNext    = 4
	offLeafPrev    = 8
	offLeafHigh    = 12
	internalHeader = 16
	offIntCount    = 2
	offIntChild0   = 4
	offIntNext     = 8
	offIntHigh     = 12
	intEntrySize   = 8
)

// Errors returned by the tree.
var (
	ErrNotFound  = errors.New("btree: element not found")
	ErrDuplicate = errors.New("btree: duplicate start key")
	ErrCorrupt   = errors.New("btree: corrupt page")
)

// Tree is a disk-resident B+-tree over elements keyed by Start.
type Tree struct {
	pool  *bufferpool.Pool
	meta  pagefile.PageID
	docID uint32

	// rootH packs the root page id (high 32 bits) and the tree height
	// (low 32 bits; 1 = root is a leaf) into one word so lock-free
	// readers start every descent from a consistent pair. Stale values
	// are safe: an old root still reaches every key via right-links.
	rootH atomic.Uint64

	count atomic.Int64

	leafCap int // max elements per leaf
	intCap  int // max keys per internal node

	// wlatch serializes writers (Insert, Delete, BulkLoad) against each
	// other; the per-mutation WAL transaction state below is per-tree.
	// Readers never take it — they synchronize with writers through the
	// per-page latches in pl.
	wlatch sync.Mutex

	// pl holds the per-page latches of the B-link protocol: readers
	// latch one page shared while copying it; writers latch a page
	// exclusively for each byte mutation of a reader-reachable page.
	pl *platch.Table

	// tx is the WAL transaction of the mutation in flight, nil outside one.
	// Guarded by wlatch (see the core package's twin for details).
	tx *bufferpool.Tx

	// debugHeld is the net number of pins taken through the held-fetch
	// helpers below, for the xrtreedebug pin balance (see debug.go).
	// Guarded by wlatch: every caller of those helpers holds it.
	debugHeld int

	c *metrics.Counters // optional counter sink, used by write paths only
}

// loadRoot returns a consistent (root page, height) snapshot.
func (t *Tree) loadRoot() (pagefile.PageID, int) {
	v := t.rootH.Load()
	return pagefile.PageID(v >> 32), int(uint32(v))
}

// setRoot publishes a new (root page, height) pair. Writer-only; the new
// root must be fully populated before the call.
func (t *Tree) setRoot(id pagefile.PageID, h int) {
	t.rootH.Store(uint64(id)<<32 | uint64(uint32(h)))
}

// The fetch/unpin wrappers route page accesses through the in-flight WAL
// transaction when one exists; otherwise they are the plain pool calls.
// Only writers use them; readers copy pages through the pool directly.

func (t *Tree) fetch(id pagefile.PageID) ([]byte, error) {
	data, err := t.pool.FetchHeld(t.tx, id)
	t.debugPinned(err, 1)
	return data, err
}

func (t *Tree) fetchNew() (pagefile.PageID, []byte, error) {
	id, data, err := t.pool.FetchNewHeld(t.tx)
	t.debugPinned(err, 1)
	return id, data, err
}

func (t *Tree) unpin(id pagefile.PageID, dirty bool) error {
	err := t.pool.UnpinTx(t.tx, id, dirty)
	t.debugPinned(err, -1)
	return err
}

func (t *Tree) discard(id pagefile.PageID) error {
	err := t.pool.DiscardTx(t.tx, id)
	t.debugPinned(err, -1)
	return err
}

func (t *Tree) free(id pagefile.PageID) error {
	return t.pool.FreeTx(t.tx, id)
}

// beginTx starts a WAL transaction for one mutation and returns its
// commit function, to be deferred with the mutation's named error.
func (t *Tree) beginTx() func(*error) {
	t.tx = t.pool.Begin()
	return func(errp *error) {
		tx := t.tx
		t.tx = nil
		if cerr := t.pool.CommitTx(tx); cerr != nil && *errp == nil {
			*errp = cerr
		}
	}
}

// New creates an empty tree whose pages come from pool's file.
func New(pool *bufferpool.Pool, docID uint32) (*Tree, error) {
	t := &Tree{pool: pool, docID: docID, pl: platch.NewTable()}
	t.computeCaps()
	metaID, metaData, err := pool.FetchNew()
	if err != nil {
		return nil, err
	}
	t.meta = metaID
	rootID, rootData, err := pool.FetchNew()
	if err != nil {
		pool.Unpin(metaID, true)
		return nil, err
	}
	initLeaf(rootData)
	if err := pool.Unpin(rootID, true); err != nil {
		pool.Unpin(metaID, true) // best-effort: the first error propagates
		return nil, err
	}
	t.setRoot(rootID, 1)
	putU32(metaData[0:], metaMagic)
	t.writeMeta(metaData)
	if err := pool.Unpin(metaID, true); err != nil {
		return nil, err
	}
	return t, nil
}

// Open reattaches to a tree previously created by New in pool's file.
func Open(pool *bufferpool.Pool, meta pagefile.PageID) (*Tree, error) {
	t := &Tree{pool: pool, meta: meta, pl: platch.NewTable()}
	t.computeCaps()
	data, err := pool.Fetch(meta)
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(meta, false)
	if getU32(data[0:]) != metaMagic {
		return nil, fmt.Errorf("%w: bad meta magic", ErrCorrupt)
	}
	t.setRoot(pagefile.PageID(getU32(data[4:])), int(getU32(data[8:])))
	t.count.Store(int64(getU32(data[12:])))
	t.docID = getU32(data[16:])
	return t, nil
}

func (t *Tree) computeCaps() {
	ps := t.pool.File().PageSize()
	t.leafCap = (ps - leafHeader) / xmldoc.EncodedSize
	t.intCap = (ps - internalHeader) / intEntrySize
	if t.leafCap < 2 || t.intCap < 3 {
		panic(fmt.Sprintf("btree: page size %d too small", ps))
	}
}

func (t *Tree) syncMeta() error {
	data, err := t.fetch(t.meta)
	if err != nil {
		return err
	}
	t.writeMeta(data)
	return t.unpin(t.meta, true)
}

func (t *Tree) writeMeta(data []byte) {
	root, h := t.loadRoot()
	putU32(data[4:], uint32(root))
	putU32(data[8:], uint32(h))
	putU32(data[12:], uint32(t.count.Load()))
	putU32(data[16:], t.docID)
}

// Meta returns the meta page id, the handle needed by Open.
func (t *Tree) Meta() pagefile.PageID { return t.meta }

// Len returns the number of elements in the tree.
func (t *Tree) Len() int { return int(t.count.Load()) }

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int { _, h := t.loadRoot(); return h }

// DocID returns the document id of the indexed set.
func (t *Tree) DocID() uint32 { return t.docID }

// SetCounters directs cost accounting to c (nil detaches).
func (t *Tree) SetCounters(c *metrics.Counters) { t.c = c }

func (t *Tree) countNode() {
	if t.c != nil {
		t.c.IndexNodeReads++
	}
}

func (t *Tree) countLeaf() {
	if t.c != nil {
		t.c.LeafReads++
	}
}

func (t *Tree) countScan(n int) {
	if t.c != nil {
		t.c.ElementsScanned += int64(n)
	}
}

// The add* helpers attribute costs to an explicit counter set; query paths
// use them (instead of the tree-attached sink) so concurrent readers never
// share mutable counter state.
func addNode(c *metrics.Counters) {
	if c != nil {
		c.IndexNodeReads++
	}
}

func addLeaf(c *metrics.Counters) {
	if c != nil {
		c.LeafReads++
	}
}

func addScan(c *metrics.Counters, n int64) {
	if c != nil {
		c.ElementsScanned += n
	}
}

// --- page helpers -------------------------------------------------------

func initLeaf(data []byte) {
	for i := range data[:leafHeader] {
		data[i] = 0
	}
	data[0] = leafType
	putU32(data[offLeafNext:], uint32(pagefile.InvalidPage))
	putU32(data[offLeafPrev:], uint32(pagefile.InvalidPage))
}

func initInternal(data []byte) {
	for i := range data[:internalHeader] {
		data[i] = 0
	}
	data[0] = internalType
	putU32(data[offIntNext:], uint32(pagefile.InvalidPage))
}

func leafCount(data []byte) int    { return int(getU16(data[offLeafCount:])) }
func intCount(data []byte) int     { return int(getU16(data[offIntCount:])) }
func isLeaf(data []byte) bool      { return data[0] == leafType }
func setLeafCount(d []byte, n int) { putU16(d[offLeafCount:], uint16(n)) }
func setIntCount(d []byte, n int)  { putU16(d[offIntCount:], uint16(n)) }

func leafEntry(data []byte, i int) []byte {
	off := leafHeader + i*xmldoc.EncodedSize
	return data[off : off+xmldoc.EncodedSize]
}

func leafElem(data []byte, i int) xmldoc.Element {
	e, _ := xmldoc.DecodeElement(leafEntry(data, i))
	return e
}

func leafKey(data []byte, i int) uint32 { return getU32(leafEntry(data, i)) }

func leafNext(data []byte) pagefile.PageID     { return pagefile.PageID(getU32(data[offLeafNext:])) }
func leafPrev(data []byte) pagefile.PageID     { return pagefile.PageID(getU32(data[offLeafPrev:])) }
func setLeafNext(d []byte, id pagefile.PageID) { putU32(d[offLeafNext:], uint32(id)) }
func setLeafPrev(d []byte, id pagefile.PageID) { putU32(d[offLeafPrev:], uint32(id)) }

// The high key is the lowest key of the page's right sibling; 0 means +∞
// (rightmost page at its level). A reader whose search key is ≥ the high
// key moves right. For leaves the chain's next pointer is the right link.
func leafHigh(data []byte) uint32             { return getU32(data[offLeafHigh:]) }
func setLeafHigh(d []byte, k uint32)          { putU32(d[offLeafHigh:], k) }
func intNext(data []byte) pagefile.PageID     { return pagefile.PageID(getU32(data[offIntNext:])) }
func setIntNext(d []byte, id pagefile.PageID) { putU32(d[offIntNext:], uint32(id)) }
func intHigh(data []byte) uint32              { return getU32(data[offIntHigh:]) }
func setIntHigh(d []byte, k uint32)           { putU32(d[offIntHigh:], k) }

// moveRight reports whether a B-link reader positioned at a page with the
// given high key and right link must follow the link to find key.
func moveRight(high uint32, next pagefile.PageID, key uint32) bool {
	return high != 0 && key >= high && next != pagefile.InvalidPage
}

func intKey(data []byte, i int) uint32 {
	return getU32(data[internalHeader+i*intEntrySize:])
}

func setIntKey(data []byte, i int, k uint32) {
	putU32(data[internalHeader+i*intEntrySize:], k)
}

// intChild returns child pointer i (0..m). Child 0 is stored separately.
func intChild(data []byte, i int) pagefile.PageID {
	if i == 0 {
		return pagefile.PageID(getU32(data[offIntChild0:]))
	}
	return pagefile.PageID(getU32(data[internalHeader+(i-1)*intEntrySize+4:]))
}

func setIntChild(data []byte, i int, id pagefile.PageID) {
	if i == 0 {
		putU32(data[offIntChild0:], uint32(id))
		return
	}
	putU32(data[internalHeader+(i-1)*intEntrySize+4:], uint32(id))
}

// leafSearch returns the index of the first entry with start ≥ key.
func leafSearch(data []byte, key uint32) int {
	lo, hi := 0, leafCount(data)
	for lo < hi {
		mid := (lo + hi) / 2
		if leafKey(data, mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intSearch returns the child index to follow for key: the child after the
// largest separator ≤ key, or child 0 if every separator exceeds key.
func intSearch(data []byte, key uint32) int {
	lo, hi := 0, intCount(data) // searching over separators
	for lo < hi {
		mid := (lo + hi) / 2
		if intKey(data, mid) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo // number of separators ≤ key == child index
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU16(b []byte, v uint16) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
}

func getU16(b []byte) uint16 {
	return uint16(b[0]) | uint16(b[1])<<8
}
