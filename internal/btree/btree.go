// Package btree implements the paged B+-tree used by the Anc_Des_B+
// structural-join baseline [Chien et al., VLDB 2002] that the paper
// compares against. It indexes region-encoded elements on their start
// position: leaf pages hold full element entries sorted by start and are
// linked left to right; internal pages hold separator keys and child
// pointers.
//
// The tree is dynamic (insert and delete with split, redistribution and
// merge) and all page access goes through the buffer pool so experiments
// observe page misses. Both sides are the B-link layer of internal/blink,
// which this package embeds without stab hooks: the read side (Lookup,
// SeekGE, Scan and the leaf-chain Iterator with its finger seeks) and the
// write side behind Insert, Delete and BulkLoad. This package keeps the
// meta page, the writer latch and the transaction-routed page helpers.
//
// # Concurrency
//
// The tree uses the B-link protocol (Lehman–Yao; see internal/blink).
// Readers never take a tree-wide latch. Writers serialize against each
// other on wlatch (the WAL transaction state is per-tree) but block
// readers only page by page. Query paths attribute costs to
// caller-supplied counters, never to the shared tree sink.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"xrtree/internal/blink"
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
// Leaf page: the shared B-link leaf (see internal/blink), flags unused.
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

	internalType = 2
)

// intShape is the internal-page layout above.
var intShape = blink.Shape{Type: internalType, Header: 16, EntrySize: 8, OffNext: 8, OffHigh: 12}

var le = binary.LittleEndian

// Errors returned by the tree.
var (
	ErrNotFound  = errors.New("btree: element not found")
	ErrDuplicate = errors.New("btree: duplicate start key")
	ErrCorrupt   = errors.New("btree: corrupt page")
)

// Iterator walks leaf entries in ascending start order; see blink.Iterator.
type Iterator = blink.Iterator

// Tree is a disk-resident B+-tree over elements keyed by Start.
type Tree struct {
	blink.Tree // the read side: root snapshot, Lookup, SeekGE, Scan

	pool *bufferpool.Pool
	meta pagefile.PageID

	count atomic.Int64

	// wlatch serializes writers (Insert, Delete, BulkLoad) against each
	// other; the per-mutation WAL transaction state below is per-tree.
	// Readers never take it — they synchronize with writers through the
	// per-page latches in pl.
	wlatch sync.Mutex

	// pl holds the per-page latches of the B-link protocol: readers
	// latch one page shared while copying it; writers latch a page
	// exclusively for each byte mutation of a reader-reachable page.
	// The embedded layer takes them.
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

// The fetch/unpin wrappers route page accesses through the in-flight WAL
// transaction when one exists; otherwise they are the plain pool calls.
// Only writers — the embedded write layer — and the wlatch-holding checker
// use them; readers copy pages through the pool directly.

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

// newTree returns a tree handle over pool with its B-link layer set up for
// document docID; the caller publishes the root.
func newTree(pool *bufferpool.Pool, meta pagefile.PageID, docID uint32) *Tree {
	t := &Tree{pool: pool, meta: meta, pl: platch.NewTable()}
	t.Init(pool, t.pl, blink.Config{
		Shape: &intShape, DocID: docID,
		NotFound: ErrNotFound, Duplicate: ErrDuplicate, Corrupt: ErrCorrupt,
		Pages: blink.Pages{Fetch: t.fetch, FetchNew: t.fetchNew, Unpin: t.unpin, Discard: t.discard, Free: t.free},
	})
	return t
}

// New creates an empty tree whose pages come from pool's file.
func New(pool *bufferpool.Pool, docID uint32) (*Tree, error) {
	metaID, metaData, err := pool.FetchNew()
	if err != nil {
		return nil, err
	}
	t := newTree(pool, metaID, docID)
	rootID, rootData, err := pool.FetchNew()
	if err != nil {
		pool.Unpin(metaID, true)
		return nil, err
	}
	blink.InitLeaf(rootData)
	if err := pool.Unpin(rootID, true); err != nil {
		pool.Unpin(metaID, true) // best-effort: the first error propagates
		return nil, err
	}
	t.SetRoot(rootID, 1)
	le.PutUint32(metaData[0:], metaMagic)
	t.writeMeta(metaData)
	if err := pool.Unpin(metaID, true); err != nil {
		return nil, err
	}
	return t, nil
}

// Open reattaches to a tree previously created by New in pool's file.
func Open(pool *bufferpool.Pool, meta pagefile.PageID) (*Tree, error) {
	data, err := pool.Fetch(meta)
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(meta, false)
	if le.Uint32(data[0:]) != metaMagic {
		return nil, fmt.Errorf("%w: bad meta magic", ErrCorrupt)
	}
	t := newTree(pool, meta, le.Uint32(data[16:]))
	t.SetRoot(pagefile.PageID(le.Uint32(data[4:])), int(le.Uint32(data[8:])))
	t.count.Store(int64(le.Uint32(data[12:])))
	return t, nil
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
	root, h := t.Root()
	le.PutUint32(data[4:], uint32(root))
	le.PutUint32(data[8:], uint32(h))
	le.PutUint32(data[12:], uint32(t.count.Load()))
	le.PutUint32(data[16:], t.DocID())
}

// Meta returns the meta page id, the handle needed by Open.
func (t *Tree) Meta() pagefile.PageID { return t.meta }

// Len returns the number of elements in the tree.
func (t *Tree) Len() int { return int(t.count.Load()) }

// SetCounters directs the write paths' node and leaf reads to c (nil
// detaches).
func (t *Tree) SetCounters(c *metrics.Counters) { t.c = c }

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
