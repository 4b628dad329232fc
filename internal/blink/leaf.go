// Package blink is the B-link tree layer shared by the two paged trees:
// the B+-tree of the Anc_Des_B+ baseline (internal/btree) and the XR-tree
// (internal/core), which is that same B+-tree backbone with stab lists
// hung off its internal nodes (§3). It holds the backbone once, read and
// write side:
//
//   - the leaf page format, byte-identical in both trees, and its
//     accessors and in-leaf searches;
//   - the internal-page Shape each tree declares once, and the one B-link
//     descent step over it;
//   - Tree, the root snapshot plus the copy-on-read descent and Lookup,
//     the meta page (New, Open, Len, Meta) and the one writer: the writer
//     latch, the WAL transaction of the mutation in flight, the held-page
//     helpers and the xrtreedebug pin ledger;
//   - Iterator, the copy-on-hop leaf-chain cursor with finger seeks;
//   - the write side: Insert, Delete and BulkLoad with the insert and
//     delete descents, leaf and node splits, borrows, rotations and
//     merges, root growth and shrink, the bulk-load level builder, and
//     CheckInvariants' backbone walk.
//
// Each tree package embeds Tree and declares its internal-page Shape, meta
// magic and errors. The XR-tree's stab-list upkeep and owner steps run as
// Hooks at the steps Algorithms 1 and 2 name, and its own writer-side
// code reaches pages through the Writer handle New and Open return; the
// B+-tree has neither.
//
// # Concurrency
//
// This is the Lehman–Yao B-link protocol. Every page carries a high key
// (the lowest key of its right sibling; 0 = +∞) and a right link; a page
// covers keys strictly below its high key. A reader holds one shared page
// latch at a time, only while copying (or, for the XR-tree's ancestor
// probe, reading) a page, and recovers from a concurrent split by moving
// right whenever its key is at or beyond the page's high key — at every
// level, including the leaves, where a stale parent may have sent it to a
// freshly split left half.
//
// Writers are serialized by the writer latch and latch a page
// exclusively for each mutation of it, so a reader sees every page before
// or after a write, never torn. A split populates the new right page while it is
// unreachable, then one latched write shrinks the left page and installs
// its right link and high key, then the old right neighbour's back link is
// fixed in a write of its own (scans follow next links only), and the
// parent learns of the split last. A rebalance latches the parent, then
// the left and the right sibling (LockRight: top-down, left to right) and
// does all its work — separator and stab hooks included — inside that
// bracket; a merge's back-link fix latches the next leaf rightward inside
// it too, and the merged right page is discarded only after its latch
// drops, so a reader that resolved its id finds a recycled page by its
// type byte and reports corruption instead of wrong data.
package blink

import (
	"encoding/binary"

	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// Leaf page layout:
//
//	0: type u8 (=LeafType) | 2: count u16 | 4: next u32 | 8: prev u32
//	12: highKey u32 (lowest key of the right sibling; 0 = +∞)
//	16: entries, count × xmldoc.EncodedSize, sorted by start;
//	    flags bit 0 = InStabList (set by the XR-tree only)
//
// The chain's next pointer doubles as the B-link right link.
const (
	LeafType   = 1
	LeafHeader = 16

	offLeafCount = 2
	offLeafNext  = 4
	offLeafPrev  = 8
	offLeafHigh  = 12
)

var le = binary.LittleEndian

// InitLeaf formats data as an empty, unlinked leaf.
func InitLeaf(data []byte) {
	clear(data[:LeafHeader])
	data[0] = LeafType
	SetLeafNext(data, pagefile.InvalidPage)
	SetLeafPrev(data, pagefile.InvalidPage)
}

func IsLeaf(data []byte) bool                  { return data[0] == LeafType }
func LeafCount(data []byte) int                { return int(le.Uint16(data[offLeafCount:])) }
func SetLeafCount(d []byte, n int)             { le.PutUint16(d[offLeafCount:], uint16(n)) }
func LeafNext(d []byte) pagefile.PageID        { return pagefile.PageID(le.Uint32(d[offLeafNext:])) }
func LeafPrev(d []byte) pagefile.PageID        { return pagefile.PageID(le.Uint32(d[offLeafPrev:])) }
func SetLeafNext(d []byte, id pagefile.PageID) { le.PutUint32(d[offLeafNext:], uint32(id)) }
func SetLeafPrev(d []byte, id pagefile.PageID) { le.PutUint32(d[offLeafPrev:], uint32(id)) }
func LeafHigh(d []byte) uint32                 { return le.Uint32(d[offLeafHigh:]) }
func SetLeafHigh(d []byte, k uint32)           { le.PutUint32(d[offLeafHigh:], k) }

// LeafEntry returns the bytes of entry i.
func LeafEntry(data []byte, i int) []byte {
	off := LeafHeader + i*xmldoc.EncodedSize
	return data[off : off+xmldoc.EncodedSize]
}

// LeafElem decodes entry i and its flags.
func LeafElem(data []byte, i int) (xmldoc.Element, uint16) {
	return xmldoc.DecodeElement(LeafEntry(data, i))
}

// LeafKey returns the start of entry i.
func LeafKey(data []byte, i int) uint32 { return le.Uint32(LeafEntry(data, i)) }

// SetLeafFlags rewrites the flags of entry i.
func SetLeafFlags(data []byte, i int, flags uint16) {
	le.PutUint16(LeafEntry(data, i)[10:], flags)
}

// InsertLeafEntry writes e with flags at position pos in a leaf with n
// entries and room for one more.
func InsertLeafEntry(data []byte, pos, n int, e xmldoc.Element, flags uint16) {
	start := LeafHeader + pos*xmldoc.EncodedSize
	end := LeafHeader + n*xmldoc.EncodedSize
	copy(data[start+xmldoc.EncodedSize:end+xmldoc.EncodedSize], data[start:end])
	e.Encode(data[start:], flags)
	SetLeafCount(data, n+1)
}

// RemoveLeafEntry deletes entry pos from a leaf with n entries.
func RemoveLeafEntry(data []byte, pos, n int) {
	start := LeafHeader + pos*xmldoc.EncodedSize
	end := LeafHeader + n*xmldoc.EncodedSize
	copy(data[start:], data[start+xmldoc.EncodedSize:end])
	SetLeafCount(data, n-1)
}

// LeafSearch returns the index of the first entry with start ≥ key.
func LeafSearch(data []byte, key uint32) int { return leafSearchIn(data, 0, LeafCount(data), key) }

// LeafSearchFrom is LeafSearch started from a cursor at index hint: when
// the answer lies at or after hint it gallops forward (1, 2, 4, … entries)
// and binary-searches the last gap, so a target k entries ahead costs
// O(log k) probes instead of O(log n); a key behind the cursor falls back
// to a binary search over the entries before it.
func LeafSearchFrom(data []byte, hint int, key uint32) int {
	n := LeafCount(data)
	hint = min(max(hint, 0), n)
	if hint > 0 && LeafKey(data, hint-1) >= key {
		return leafSearchIn(data, 0, hint-1, key)
	}
	lo, hi := hint, hint
	for step := 1; hi < n && LeafKey(data, hi) < key; step <<= 1 {
		lo = hi + 1
		hi += step
	}
	return leafSearchIn(data, lo, min(hi, n), key)
}

// leafSearchIn is LeafSearch within [lo, hi], for callers that know every
// entry before lo is below key and entry hi (when hi < count) is not.
func leafSearchIn(data []byte, lo, hi int, key uint32) int {
	for lo < hi {
		mid := (lo + hi) / 2
		if LeafKey(data, mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// moveRight reports whether a B-link reader positioned at a page with the
// given high key and right link must follow the link to find key.
func moveRight(high uint32, next pagefile.PageID, key uint32) bool {
	return high != 0 && key >= high && next != pagefile.InvalidPage
}
