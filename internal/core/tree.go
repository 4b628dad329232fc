// Package core implements the XR-tree (XML Region Tree), the paper's
// primary contribution: a paged, dynamic external-memory index over
// region-encoded XML elements (§3, Definition 4).
//
// An XR-tree is a B+-tree keyed on element start positions whose internal
// nodes are augmented with stab lists. A key k "stabs" an element (s, e)
// when s ≤ k ≤ e; the stab list SL(n) of internal node n holds every
// element stabbed by at least one key of n but by no key of any ancestor of
// n, so each element appears in at most one stab list — that of the highest
// stabbing node. Within a node the elements are grouped by their primary
// stabbing key (the smallest stabbing key of the node, Definition 2); the
// run for key k is its primary stab list PSL(k), stored outermost-first.
// Every internal key entry carries (ps, pe), the region of the first
// element of its PSL (Definition 3), plus a direct pointer to the stab-list
// page holding that element — the equivalent of the paper's ps directory
// page (§3.3, Figure 4) folded into the key entry.
//
// These structures make FindAncestors run in O(log_F N + R) worst-case page
// accesses (Theorem 4) while FindDescendants remains the plain B+-tree
// range scan (Theorem 3), which is what the XR-stack join algorithm
// exploits to skip both non-joining ancestors and descendants.
//
// # Concurrency
//
// The tree uses the B-link protocol (Lehman–Yao), extended to cover stab
// lists. Every index page carries a high key (the lowest key of its right
// sibling; 0 = +∞) and a right-sibling link; a page covers keys strictly
// below its high key, and a reader finding its search key at or beyond
// the high key follows the right link. Readers (FindAncestors,
// FindDescendants, Lookup, SeekGE, Scan, FindParent, FindChildren) take no
// tree-wide latch: a descent holds one per-page shared latch at a time
// (see internal/platch) and recovers from concurrent splits by moving
// right. Writers (Insert, Delete, BulkLoad) and the whole-tree walks
// (Space, CheckInvariants) serialize against each other on the writer
// latch but block readers only page by page.
//
// A node's page latch also covers its stab chain: FindAncestors reads a
// node's stab pages while still holding that node's shared latch, and
// writers keep the owning node latched exclusively for the duration of
// any stab-chain mutation, so stab pages need no latches of their own.
//
// The B+-tree backbone is internal/blink, shared with the B+-tree
// baseline: on the read side the copy descent behind Lookup and SeekGE,
// the leaf-chain Iterator with its finger seeks, and the descent step the
// ancestor probe's pinned descent advances by; on the write side the
// writer latch, the WAL transaction, the meta page, and the descents,
// splits, rebalances, root growth and shrink and the bulk-load levels, in
// the B-link order described there. This package keeps the stab lists and
// runs their upkeep as that layer's hooks (stabHooks), inside its latch
// brackets, through the write side's held-page helpers (blink.Writer).
// Query paths attribute costs to the caller-supplied counter set and
// share no mutable tree state.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
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
// Meta page: the B-link meta page (see internal/blink), magic metaMagic,
// with two words of its own (stabHooks.MetaWords):
//
//	20: stabCount u32 (elements currently held in stab lists)
//	24: stabPages u32 (stab-list pages currently allocated)
//
// Leaf page: the shared B-link leaf (see internal/blink), identical to the
// B+-tree backbone's; flags bit 0 = InStabList.
//
// Internal page:
//
//	0: type u8 (=internalType) | 2: count u16 (number of keys m)
//	4: child0 u32 | 8: stabHead u32 | 12: stabTail u32
//	16: next u32 (right sibling) | 20: highKey u32
//	24: entries, m × 20 bytes:
//	    key u32 | child u32 (right child) | ps u32 | pe u32 | pslPage u32
//	    ps == 0 encodes a nil (ps, pe): positions are ≥ 1 by construction.
//
// The high key and right link are the B-link fields (for leaves the chain
// next pointer doubles as the right link).
//
// Stab-list page:
//
//	0: type u8 (=stabType) | 2: count u16 | 4: next u32 | 8: prev u32
//	12: entries, count × 20 bytes:
//	    key u32 | start u32 | end u32 | ref u32 | level u16 | pad u16
//	    sorted by (key, start) across the whole chain.
const (
	metaMagic = 0x58525431 // "XRT1"

	internalType = 3
	stabType     = 4

	offIntStabHead = 8
	offIntStabTail = 12

	stabHeader    = 12
	offStabCount  = 2
	offStabNext   = 4
	offStabPrev   = 8
	stabEntrySize = 20
)

// intShape is the internal-page layout above.
var intShape = blink.Shape{Type: internalType, Header: 24, EntrySize: 20, OffNext: 16, OffHigh: 20}

var le = binary.LittleEndian

// Errors returned by the XR-tree.
var (
	ErrNotFound  = errors.New("xrtree: element not found")
	ErrDuplicate = errors.New("xrtree: duplicate start key")
	ErrCorrupt   = errors.New("xrtree: corrupt page")
)

// Options tunes tree construction.
type Options struct {
	// DisableKeyChoice turns off the §3.2 separator-choice optimization
	// (preferring separator s−1 over s when it still separates the halves),
	// for the ablation benchmark.
	DisableKeyChoice bool
}

// Tree is a disk-resident XR-tree over one document's element set.
type Tree struct {
	blink.Tree // the backbone: readers, writers, meta page

	// w is the write side's page access and latch (blink.Writer).
	w    *blink.Writer
	pool *bufferpool.Pool
	pl   *platch.Table // the B-link page latches; a node's also covers its stab chain

	// stab statistics, persisted in the meta page (used by the §3.3
	// stab-list size experiment). Mutated only under the writer latch;
	// atomic so StabStats can read them concurrently.
	stabCount atomic.Int64 // elements in stab lists
	stabPages atomic.Int64 // allocated stab-list pages

	stabCap int

	// The stab hooks' state (see stabHooks), guarded by the writer latch:
	// rising is the StabSet' on its way up one level (I22, I32) or a
	// rotated-up key's elements (D32); splitOut gathers the next level's
	// StabSet' during a node split; sepPSL and sepAt carry a rebalance's
	// extracted separator PSL, and where a merged separator landed, from
	// its PreRebalance to its PostRebalance.
	rising, splitOut, sepPSL []stabEntry
	sepAt                    int

	// lastInsertPage records where insertAt physically placed the most
	// recent stab entry (after any page split); only meaningful right after
	// the call. Tree mutation is single-threaded (under the writer latch).
	lastInsertPage pagefile.PageID

	// stabEpoch is a seqlock-style generation counter around moves of
	// existing stab content BETWEEN containers — promotions to a parent
	// chain on splits, demotions to plain leaf entries and rotations on
	// rebalances. Per-page latches cannot make such moves atomic for a
	// top-down reader (content can move up behind it), so writers hold
	// the epoch odd while a move is in flight and readers validate it
	// around each ancestor probe, retrying on overlap. Moves happen only
	// on structural changes, so validation failures are rare.
	stabEpoch atomic.Uint64

	// stabMoveOpen tracks whether the running mutation already opened a
	// stab-move bracket. Guarded by the writer latch.
	stabMoveOpen bool

	// debugOps counts mutations for the xrtreedebug sampled invariant
	// check (see debug.go). Guarded by the writer latch.
	debugOps int
}

// beginStabMove opens the mutation's stab-move bracket (idempotent per
// operation): the epoch turns odd, telling concurrent ancestor probes
// that stab content is in flight between containers. Caller holds the
// writer latch.
func (t *Tree) beginStabMove() {
	if !t.stabMoveOpen {
		t.stabMoveOpen = true
		t.stabEpoch.Add(1)
	}
}

// endStabMove closes the bracket at operation exit: the epoch turns even
// again once every moved element has reached its final container. A no-op
// when the operation moved nothing. Caller holds the writer latch.
func (t *Tree) endStabMove() {
	if t.stabMoveOpen {
		t.stabMoveOpen = false
		t.stabEpoch.Add(1)
	}
}

// Done closes the mutation's stab-move bracket and, after a successful
// one, runs the xrtreedebug sampled invariant check.
func (h stabHooks) Done(ok bool) {
	if ok {
		h.debugPostMutation()
	}
	h.endStabMove()
}

// newTree returns a tree handle over pool and the B-link configuration
// that sets it up: its shape, errors and stab hooks.
func newTree(pool *bufferpool.Pool, opts Options) (*Tree, blink.Config) {
	t := &Tree{pool: pool, pl: platch.NewTable()}
	t.stabCap = (pool.File().PageSize() - stabHeader) / stabEntrySize
	return t, blink.Config{
		Shape:    &intShape,
		NotFound: ErrNotFound, Duplicate: ErrDuplicate, Corrupt: ErrCorrupt,
		Hooks:     stabHooks{t},
		KeyChoice: !opts.DisableKeyChoice,
	}
}

// attach keeps the write side's handle that blink.New or Open returned,
// and panics when a page cannot hold four entries of every kind.
func (t *Tree) attach(w *blink.Writer, err error) (*Tree, error) {
	if err != nil {
		return nil, err
	}
	t.w = w
	if leafCap, intCap := t.Caps(); leafCap < 4 || intCap < 4 || t.stabCap < 4 {
		panic(fmt.Sprintf("xrtree: page size %d too small", t.pool.File().PageSize()))
	}
	return t, nil
}

// New creates an empty XR-tree whose pages come from pool's file.
func New(pool *bufferpool.Pool, docID uint32, opts Options) (*Tree, error) {
	t, cfg := newTree(pool, opts)
	return t.attach(blink.New(&t.Tree, pool, t.pl, metaMagic, docID, cfg))
}

// Open reattaches to an XR-tree previously created by New in pool's file.
func Open(pool *bufferpool.Pool, meta pagefile.PageID, opts Options) (*Tree, error) {
	t, cfg := newTree(pool, opts)
	return t.attach(blink.Open(&t.Tree, pool, t.pl, meta, metaMagic, cfg))
}

// StabStats returns the number of elements currently held in stab lists and
// the number of stab-list pages allocated — the quantities measured by the
// §3.3 stab-list size study.
func (t *Tree) StabStats() (elements, pages int) {
	return int(t.stabCount.Load()), int(t.stabPages.Load())
}

// MetaWords are the stab statistics the meta page persists.
func (h stabHooks) MetaWords() []*atomic.Int64 {
	return []*atomic.Int64{&h.stabCount, &h.stabPages}
}

// The add* helpers attribute costs to an explicit counter set, so
// concurrent readers never share mutable state.
func addStabPage(c *metrics.Counters) {
	if c != nil {
		c.StabPageReads++
	}
}

func addScan(c *metrics.Counters, n int64) {
	if c != nil {
		c.ElementsScanned += n
	}
}

// --- internal page helpers -----------------------------------------------

func stabHead(d []byte) pagefile.PageID        { return pagefile.PageID(le.Uint32(d[offIntStabHead:])) }
func stabTail(d []byte) pagefile.PageID        { return pagefile.PageID(le.Uint32(d[offIntStabTail:])) }
func setStabHead(d []byte, id pagefile.PageID) { le.PutUint32(d[offIntStabHead:], uint32(id)) }
func setStabTail(d []byte, id pagefile.PageID) { le.PutUint32(d[offIntStabTail:], uint32(id)) }

// keyPS/keyPE return the (ps, pe) fields of key i; ps == 0 means nil.
func keyPS(data []byte, i int) uint32 { return le.Uint32(intShape.Entry(data, i)[8:]) }
func keyPE(data []byte, i int) uint32 { return le.Uint32(intShape.Entry(data, i)[12:]) }

func setKeyPSPE(data []byte, i int, ps, pe uint32) {
	le.PutUint32(intShape.Entry(data, i)[8:], ps)
	le.PutUint32(intShape.Entry(data, i)[12:], pe)
}

// keyPSLPage returns the stab page holding the head of PSL(key i).
func keyPSLPage(data []byte, i int) pagefile.PageID {
	return pagefile.PageID(le.Uint32(intShape.Entry(data, i)[16:]))
}

func setKeyPSLPage(data []byte, i int, id pagefile.PageID) {
	le.PutUint32(intShape.Entry(data, i)[16:], uint32(id))
}

// keyIndex returns the index of the key with exact value k, or -1.
func keyIndex(data []byte, k uint32) int {
	i := intShape.Search(data, k) - 1 // largest key ≤ k
	if i >= 0 && intShape.Key(data, i) == k {
		return i
	}
	return -1
}

// primaryKeyIndex returns the index of the smallest key of the node that
// stabs (s, e) — the element's primary stabbing key (Definition 1) — or -1
// if no key stabs it.
func primaryKeyIndex(data []byte, s, e uint32) int {
	// Smallest key ≥ s; it stabs iff it is ≤ e.
	m := intShape.Count(data)
	lo, hi := 0, m
	for lo < hi {
		mid := (lo + hi) / 2
		if intShape.Key(data, mid) < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < m && intShape.Key(data, lo) <= e {
		return lo
	}
	return -1
}

// --- stab page helpers ----------------------------------------------------

// stabEntry is the in-memory form of one stab-list entry.
type stabEntry struct {
	key   uint32 // primary stabbing key within the owning node
	start uint32
	end   uint32
	ref   uint32
	level uint16
}

func (se stabEntry) element(docID uint32) xmldoc.Element {
	return xmldoc.Element{DocID: docID, Start: se.start, End: se.end, Level: se.level, Ref: se.ref}
}

// stabs reports whether position k stabs the entry's region.
func (se stabEntry) stabs(k uint32) bool { return se.start <= k && k <= se.end }

func initStabPage(data []byte) {
	for i := range data[:stabHeader] {
		data[i] = 0
	}
	data[0] = stabType
	le.PutUint32(data[offStabNext:], uint32(pagefile.InvalidPage))
	le.PutUint32(data[offStabPrev:], uint32(pagefile.InvalidPage))
}

func stabCount(data []byte) int    { return int(le.Uint16(data[offStabCount:])) }
func setStabCount(d []byte, n int) { le.PutUint16(d[offStabCount:], uint16(n)) }

func stabNext(d []byte) pagefile.PageID        { return pagefile.PageID(le.Uint32(d[offStabNext:])) }
func stabPrev(d []byte) pagefile.PageID        { return pagefile.PageID(le.Uint32(d[offStabPrev:])) }
func setStabNext(d []byte, id pagefile.PageID) { le.PutUint32(d[offStabNext:], uint32(id)) }
func setStabPrev(d []byte, id pagefile.PageID) { le.PutUint32(d[offStabPrev:], uint32(id)) }

func stabEntryAt(data []byte, i int) stabEntry {
	off := stabHeader + i*stabEntrySize
	b := data[off : off+stabEntrySize]
	return stabEntry{
		key:   le.Uint32(b[0:]),
		start: le.Uint32(b[4:]),
		end:   le.Uint32(b[8:]),
		ref:   le.Uint32(b[12:]),
		level: le.Uint16(b[16:]),
	}
}

func putStabEntry(data []byte, i int, se stabEntry) {
	off := stabHeader + i*stabEntrySize
	b := data[off : off+stabEntrySize]
	le.PutUint32(b[0:], se.key)
	le.PutUint32(b[4:], se.start)
	le.PutUint32(b[8:], se.end)
	le.PutUint32(b[12:], se.ref)
	le.PutUint16(b[16:], se.level)
	le.PutUint16(b[18:], 0)
}

// insertStabEntry writes se at position pos in a stab page with n entries
// and room for one more.
func insertStabEntry(data []byte, pos, n int, se stabEntry) {
	start := stabHeader + pos*stabEntrySize
	end := stabHeader + n*stabEntrySize
	copy(data[start+stabEntrySize:end+stabEntrySize], data[start:end])
	putStabEntry(data, pos, se)
	setStabCount(data, n+1)
}

// removeStabEntry deletes entry pos from a stab page with n entries.
func removeStabEntry(data []byte, pos, n int) {
	start := stabHeader + pos*stabEntrySize
	end := stabHeader + n*stabEntrySize
	copy(data[start:], data[start+stabEntrySize:end])
	setStabCount(data, n-1)
}

// stabLess orders stab entries by (key, start).
func stabLess(aKey, aStart, bKey, bStart uint32) bool {
	if aKey != bKey {
		return aKey < bKey
	}
	return aStart < bStart
}
