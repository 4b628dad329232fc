package blink

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xrtree/internal/bufferpool"
	"xrtree/internal/metrics"
	"xrtree/internal/obs"
	"xrtree/internal/pagefile"
	"xrtree/internal/platch"
	"xrtree/internal/xmldoc"
)

// Tree is the read side of one B-link tree. A tree package embeds it, sets
// it up with Init, and so inherits the reader entry points (Lookup,
// SeekGE, Scan, PrefetchGE) along with the root snapshot its writers
// publish through SetRoot.
type Tree struct {
	pool  *bufferpool.Pool
	pl    *platch.Table // per-page latches, shared with the owner's writers
	shape *Shape
	docID uint32

	// notFound and corrupt are the owning package's sentinel errors, which
	// the read layer wraps so errors.Is matches them.
	notFound, corrupt error

	// rootH packs the root page id (high 32 bits) and the tree height
	// (low 32 bits; 1 = root is a leaf) into one word so latch-free
	// readers start every descent from a consistent pair. Stale values
	// are safe: an old root still reaches every key via right links.
	rootH atomic.Uint64
}

// Init sets the read layer up over pool and the owner's page latches, for
// internal pages of the given shape and elements of document docID.
func (t *Tree) Init(pool *bufferpool.Pool, pl *platch.Table, shape *Shape, docID uint32, notFound, corrupt error) {
	t.pool, t.pl, t.shape, t.docID = pool, pl, shape, docID
	t.notFound, t.corrupt = notFound, corrupt
}

// Root returns a consistent (root page, height) snapshot.
func (t *Tree) Root() (pagefile.PageID, int) {
	v := t.rootH.Load()
	return pagefile.PageID(v >> 32), int(uint32(v))
}

// SetRoot publishes a new (root page, height) pair. Writer-only; the new
// root must be fully populated before the call.
func (t *Tree) SetRoot(id pagefile.PageID, h int) {
	t.rootH.Store(uint64(id)<<32 | uint64(uint32(h)))
}

// Height returns the tree height (1 = the root is a leaf).
func (t *Tree) Height() int { _, h := t.Root(); return h }

// DocID returns the document id of the indexed element set.
func (t *Tree) DocID() uint32 { return t.docID }

// pageBufs pools leaf-copy buffers as *[]byte, so an iterator's Seek and
// Close move the same pointer in and out of the pool and allocate nothing.
var pageBufs sync.Pool

func (t *Tree) getPageBuf() *[]byte {
	n := t.pool.File().PageSize()
	if p, _ := pageBufs.Get().(*[]byte); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	b := make([]byte, n)
	return &b
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

// descend runs the B-link root-to-leaf descent for key and leaves a
// private copy of the leaf that covers key in buf. It holds one page latch
// at a time, never a tree latch. The root snapshot may be stale (a
// concurrent root growth is invisible); that is safe because the old root
// still reaches every key through right links.
func (t *Tree) descend(key uint32, c *metrics.Counters, buf []byte) error {
	id, h := t.Root()
	//xrvet:bounded root-to-leaf descent: h levels plus one right move per
	// concurrent split outrunning us; cancellation is polled per right move.
	for {
		if err := t.readPage(id, buf, c); err != nil {
			return err
		}
		next, mv := t.shape.Step(buf, key, c)
		switch mv {
		case Land:
			c.Emit(obs.EvIndexDescend, int64(h))
			return nil
		case Bad:
			return fmt.Errorf("%w: page %d is neither leaf nor internal", t.corrupt, id)
		case Right:
			if err := c.Interrupted(); err != nil {
				return err
			}
		}
		id = next
	}
}

// Lookup returns the element whose start equals key, or the owner's
// ErrNotFound, with costs attributed to c (nil discards them). Safe for
// concurrent readers and writers: the descent takes no tree-wide latch.
func (t *Tree) Lookup(key uint32, c *metrics.Counters) (xmldoc.Element, error) {
	bufp := t.getPageBuf()
	defer pageBufs.Put(bufp)
	buf := *bufp
	if err := t.descend(key, c, buf); err != nil {
		return xmldoc.Element{}, err
	}
	if pos := LeafSearch(buf, key); pos < LeafCount(buf) && LeafKey(buf, pos) == key {
		e, _ := LeafElem(buf, pos)
		e.DocID = t.docID
		addScan(c, 1)
		return e, nil
	}
	return xmldoc.Element{}, fmt.Errorf("%w: start %d", t.notFound, key)
}

// hintNextLeaf publishes the chained next leaf to the pool's prefetcher,
// so a leaf-chain scan's I/O overlaps the scan of the current leaf.
func (t *Tree) hintNextLeaf(c *metrics.Counters, buf []byte) {
	if t.pool.PrefetchEnabled() {
		if next := LeafNext(buf); next != pagefile.InvalidPage {
			t.pool.Prefetch(c, next)
		}
	}
}

// PrefetchGE publishes a readahead hint for the landing page of a future
// SeekGE(key) — the XR-stack join calls it for a skip target before
// starting the stab-list work that precedes the skip, so the landing
// page's I/O overlaps the in-flight probe. The descent walks resident
// pages only (no I/O, no pins held across pages, no hit/miss accounting)
// and hints the first non-resident page on the path.
func (t *Tree) PrefetchGE(key uint32, c *metrics.Counters) {
	if !t.pool.PrefetchEnabled() {
		return
	}
	bufp := t.getPageBuf()
	defer pageBufs.Put(bufp)
	buf := *bufp
	id, h := t.Root()
	//xrvet:bounded advisory root-to-leaf descent, at most h iterations
	for level := h; level > 1; level-- {
		// Advisory path: on latch contention just hint the page reached so
		// far rather than waiting behind a writer.
		if !t.pl.TryRLock(id) {
			break
		}
		ok, err := t.pool.TryFetchCopy(id, buf)
		t.pl.RUnlock(id)
		if err != nil || !ok {
			break
		}
		//xrvet:nocounters advisory descent: the hinted probe counts its own reads
		next, mv := t.shape.Step(buf, key, nil)
		if mv == Land || mv == Bad {
			break
		}
		id = next
	}
	// id is the first page the future probe will miss on (or its leaf).
	t.pool.Prefetch(c, id)
}
