// Package btree implements the paged B+-tree used by the Anc_Des_B+
// structural-join baseline [Chien et al., VLDB 2002] that the paper
// compares against. It indexes region-encoded elements on their start
// position: leaf pages hold full element entries sorted by start and are
// linked left to right; internal pages hold separator keys and child
// pointers.
//
// The tree is dynamic (insert and delete with split, redistribution and
// merge) and all page access goes through the buffer pool so experiments
// observe page misses. The tree is the B-link tree of internal/blink run
// without hooks: the read side (Lookup, SeekGE, Scan and the leaf-chain
// Iterator with its finger seeks), the write side (Insert, Delete,
// BulkLoad under one writer latch and WAL transaction), the meta page and
// CheckInvariants all come from there. This package declares the page
// shape, the meta magic and the errors.
//
// # Concurrency
//
// The tree uses the B-link protocol (Lehman–Yao; see internal/blink).
// Readers never take a tree-wide latch. Writers serialize against each
// other on the writer latch but block readers only page by page. Query
// paths attribute costs to caller-supplied counters.
package btree

import (
	"errors"

	"xrtree/internal/blink"
	"xrtree/internal/bufferpool"
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/platch"
	"xrtree/internal/xmldoc"
)

// Page layouts.
//
// Meta page: the B-link meta page (see internal/blink), magic metaMagic.
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

// config is what the tree declares to the B-link layer.
var config = blink.Config{Shape: &intShape, NotFound: ErrNotFound, Duplicate: ErrDuplicate, Corrupt: ErrCorrupt}

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
	blink.Tree
}

// New creates an empty tree for document docID whose pages come from
// pool's file.
func New(pool *bufferpool.Pool, docID uint32) (*Tree, error) {
	t := new(Tree)
	if _, err := blink.New(&t.Tree, pool, platch.NewTable(), metaMagic, docID, config); err != nil {
		return nil, err
	}
	return t, nil
}

// Open reattaches to a tree previously created by New in pool's file.
func Open(pool *bufferpool.Pool, meta pagefile.PageID) (*Tree, error) {
	t := new(Tree)
	if _, err := blink.Open(&t.Tree, pool, platch.NewTable(), meta, metaMagic, config); err != nil {
		return nil, err
	}
	return t, nil
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
