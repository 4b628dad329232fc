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

// Tree is one B-link tree: its backbone, its meta page and its one
// writer. A tree package embeds it and sets it up with New or Open, and so
// inherits the reader entry points (Lookup, SeekGE, Scan) and the public
// write side (Insert, Delete, BulkLoad, CheckInvariants, Len, Meta). The
// owner's own steps run as its Hooks.
type Tree struct {
	pool  *bufferpool.Pool
	pl    *platch.Table // per-page latches, shared with the owner
	shape *Shape
	docID uint32

	// notFound, duplicate and corrupt are the owning package's sentinel
	// errors, which the layer wraps so errors.Is matches them.
	notFound, duplicate, corrupt error

	// The write layer's view of the owner: its hooks (nil for the
	// B+-tree), whether separators use the §3.2 key choice, and the page
	// capacities.
	hooks           Hooks
	keyChoice       bool
	leafCap, intCap int

	// rootH packs the root page id (high 32 bits) and the tree height
	// (low 32 bits; 1 = root is a leaf) into one word so latch-free
	// readers start every descent from a consistent pair. Stale values
	// are safe: an old root still reaches every key via right links.
	rootH atomic.Uint64

	// meta is the meta page; count is the element count it persists, and
	// extra the owner's own meta words (Hooks.MetaWords) after it.
	meta  pagefile.PageID
	count atomic.Int64
	extra []*atomic.Int64

	// wlatch serializes writers (Insert, Delete, BulkLoad) and the
	// whole-tree walks against each other. Readers never take it — they
	// synchronize with writers through the per-page latches in pl.
	wlatch sync.Mutex

	// tx is the WAL transaction of the mutation in flight, nil outside one
	// (and always nil when the pool has no log attached). Guarded by
	// wlatch: the held-page helpers route through it, so reader paths must
	// never use them.
	tx *bufferpool.Tx

	// debugHeld is the net number of pins taken through the held-page
	// helpers, for the xrtreedebug pin balance (see debug.go). Guarded by
	// wlatch: every caller of those helpers holds it.
	debugHeld int
}

// Config is what an owning tree package declares to New and Open.
type Config struct {
	Shape *Shape // the internal-page layout

	// The owner's sentinel errors.
	NotFound, Duplicate, Corrupt error

	Hooks     Hooks // the XR-tree's stab-list upkeep; nil for a plain B+-tree
	KeyChoice bool  // separators prefer firstRight−1 (§3.2)
}

// The meta page: magic u32 | root u32 | height u32 | count u32 |
// docID u32, then the owner's words (Hooks.MetaWords), u32 each.
const metaHeader = 20

// init sets t up over pool, the owner's page latches and meta page. It
// panics when a page cannot hold two leaf entries and three separators.
func (t *Tree) init(pool *bufferpool.Pool, pl *platch.Table, meta pagefile.PageID, docID uint32, cfg Config) {
	t.pool, t.pl, t.meta, t.shape, t.docID = pool, pl, meta, cfg.Shape, docID
	t.notFound, t.duplicate, t.corrupt = cfg.NotFound, cfg.Duplicate, cfg.Corrupt
	t.hooks, t.keyChoice = cfg.Hooks, cfg.KeyChoice
	if t.hooks != nil {
		t.extra = t.hooks.MetaWords()
	}
	ps := pool.File().PageSize()
	t.leafCap = (ps - LeafHeader) / xmldoc.EncodedSize
	t.intCap = (ps - t.shape.Header) / t.shape.EntrySize
	if t.leafCap < 2 || t.intCap < 3 {
		panic(fmt.Sprintf("blink: page size %d too small", ps))
	}
}

// New sets t up as a new, empty tree for document docID in pool's file —
// a meta page stamped with magic and an empty root leaf — and returns the
// owner's Writer.
func New(t *Tree, pool *bufferpool.Pool, pl *platch.Table, magic, docID uint32, cfg Config) (*Writer, error) {
	metaID, metaData, err := pool.FetchNew()
	if err != nil {
		return nil, err
	}
	t.init(pool, pl, metaID, docID, cfg)
	rootID, rootData, err := pool.FetchNew()
	if err != nil {
		pool.Unpin(metaID, true)
		return nil, err
	}
	InitLeaf(rootData)
	if err := pool.Unpin(rootID, true); err != nil {
		pool.Unpin(metaID, true) // best-effort: the first error propagates
		return nil, err
	}
	t.SetRoot(rootID, 1)
	le.PutUint32(metaData[0:], magic)
	t.writeMeta(metaData)
	if err := pool.Unpin(metaID, true); err != nil {
		return nil, err
	}
	return (*Writer)(t), nil
}

// Open sets t up over the tree New made in pool's file with meta page
// meta, which must carry magic, and returns the owner's Writer.
func Open(t *Tree, pool *bufferpool.Pool, pl *platch.Table, meta pagefile.PageID, magic uint32, cfg Config) (*Writer, error) {
	data, err := pool.Fetch(meta)
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(meta, false)
	if le.Uint32(data[0:]) != magic {
		return nil, fmt.Errorf("%w: bad meta magic", cfg.Corrupt)
	}
	t.init(pool, pl, meta, le.Uint32(data[16:]), cfg)
	t.SetRoot(pagefile.PageID(le.Uint32(data[4:])), int(le.Uint32(data[8:])))
	t.count.Store(int64(le.Uint32(data[12:])))
	for i, w := range t.extra {
		w.Store(int64(le.Uint32(data[metaHeader+4*i:])))
	}
	return (*Writer)(t), nil
}

// writeMeta writes everything but the magic into meta page data.
func (t *Tree) writeMeta(data []byte) {
	root, h := t.Root()
	le.PutUint32(data[4:], uint32(root))
	le.PutUint32(data[8:], uint32(h))
	le.PutUint32(data[12:], uint32(t.count.Load()))
	le.PutUint32(data[16:], t.docID)
	for i, w := range t.extra {
		le.PutUint32(data[metaHeader+4*i:], uint32(w.Load()))
	}
}

// syncMeta rewrites the meta page at the end of a mutation.
func (t *Tree) syncMeta() error {
	data, err := t.fetch(t.meta)
	if err != nil {
		return err
	}
	t.writeMeta(data)
	return t.unpin(t.meta, true)
}

// Meta returns the meta page id, the handle Open needs.
func (t *Tree) Meta() pagefile.PageID { return t.meta }

// Len returns the number of indexed elements.
func (t *Tree) Len() int { return int(t.count.Load()) }

// Caps returns the most entries a leaf and keys an internal page hold.
func (t *Tree) Caps() (leaf, node int) { return t.leafCap, t.intCap }

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
