// Package xrtree is a Go implementation of the XR-tree (XML Region Tree)
// of Jiang, Lu, Wang and Ooi, "XR-Tree: Indexing XML Data for Efficient
// Structural Joins" (ICDE 2003), together with everything needed to use and
// evaluate it: a paged storage manager with a buffer pool, region encoding
// of XML documents, a B+-tree baseline, the XR-stack structural-join
// algorithm and the baselines it is compared against, synthetic corpus
// generators, and the workloads of the paper's performance study.
//
// The typical flow is:
//
//	store := xrtree.NewMemStore(xrtree.StoreOptions{})
//	defer store.Close()
//	doc, _ := xrtree.ParseXML(file, 1)
//	emps, _ := store.IndexElements(doc.ElementsByTag("employee"), xrtree.IndexOptions{})
//	names, _ := store.IndexElements(doc.ElementsByTag("name"), xrtree.IndexOptions{})
//	var stats xrtree.Stats
//	xrtree.Join(xrtree.AlgXRStack, xrtree.AncestorDescendant, emps, names,
//	    func(a, d xrtree.Element) { fmt.Println(a, d) }, &stats)
package xrtree

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"xrtree/internal/btree"
	"xrtree/internal/bufferpool"
	"xrtree/internal/core"
	"xrtree/internal/elemlist"
	"xrtree/internal/join"
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/wal"
	"xrtree/internal/xmldoc"
)

// Element is one region-encoded XML element: see xmldoc.Element.
type Element = xmldoc.Element

// Document is a parsed, region-encoded XML document.
type Document = xmldoc.Document

// Stats carries the cost counters of an operation (elements scanned, page
// misses, I/Os, elapsed time).
type Stats = metrics.Counters

// PoolPolicy selects the buffer-pool replacement policy (StoreOptions).
type PoolPolicy = bufferpool.Policy

// Buffer replacement policies.
const (
	// PoolLRU is strict least-recently-unpinned replacement (default).
	PoolLRU = bufferpool.PolicyLRU
	// Pool2Q is scan-resistant 2Q-style replacement: a probationary FIFO
	// for first-touch pages and a protected LRU for re-referenced ones.
	Pool2Q = bufferpool.Policy2Q
)

// CostModel converts counted page misses and scans into a derived time.
type CostModel = metrics.CostModel

// DefaultCostModel mirrors the paper's observation that elapsed time is
// dominated by page misses.
var DefaultCostModel = metrics.DefaultCostModel

// ParseXML region-encodes the XML document read from r (§2.1).
func ParseXML(r io.Reader, docID uint32) (*Document, error) {
	return xmldoc.Parse(r, xmldoc.ParseOptions{DocID: docID})
}

// ParseOptions configures ParseXMLWithOptions: position gaps, text
// retention, and materializing attributes ("@name") and text runs
// ("#text") as region-encoded nodes, per the paper's tree model.
type ParseOptions = xmldoc.ParseOptions

// ParseXMLWithOptions is ParseXML with full control over the numbering and
// which node kinds are materialized.
func ParseXMLWithOptions(r io.Reader, opts ParseOptions) (*Document, error) {
	return xmldoc.Parse(r, opts)
}

// DurableCode is the durable (order, size) numbering scheme of §2.1.
type DurableCode = xmldoc.DurableCode

// DietzCode is Dietz's (preorder, postorder) numbering scheme of §2.1.
type DietzCode = xmldoc.DietzCode

// FromDurable converts durably numbered elements to region-encoded
// elements ready for indexing, preserving the ancestor relation exactly.
func FromDurable(docID uint32, codes []DurableCode) ([]Element, error) {
	return xmldoc.FromDurable(docID, codes)
}

// FromDietz converts Dietz-numbered elements to region-encoded elements
// ready for indexing, preserving the ancestor relation exactly.
func FromDietz(docID uint32, codes []DietzCode) ([]Element, error) {
	return xmldoc.FromDietz(docID, codes)
}

// StoreOptions configures a Store.
type StoreOptions struct {
	// PageSize in bytes; a power of two ≥ 256. Default 4096.
	PageSize int
	// BufferPages is the buffer-pool capacity in frames. Default 100, the
	// paper's setting (§6.1).
	BufferPages int
	// PoolShards is the number of lock-striped buffer-pool partitions
	// (rounded to a power of two). 0 selects a capacity-based heuristic:
	// 1 shard for small pools (preserving exact global LRU), up to 8 with
	// at least 16 frames each. See DESIGN.md "Concurrency".
	PoolShards int
	// PoolPolicy selects the buffer replacement policy: PolicyLRU (the
	// default, paper-faithful) or Policy2Q (scan-resistant; see DESIGN.md
	// "Storage performance").
	PoolPolicy PoolPolicy
	// Prefetch starts the pool's asynchronous readahead workers: iterators
	// publish next-page hints and the workers pull the pages in with
	// coalesced vectored reads, without pinning them.
	Prefetch bool
	// Tracer, when non-nil, receives structured trace events (page I/O,
	// index descents, skips, output batches) from every operation on the
	// store. Equivalent to calling SetTracer after creation.
	Tracer Tracer
	// WAL enables write-ahead logging on a file-backed store: every
	// Insert/Delete commits durably (group-committed fsync) before
	// returning, and OpenStore redoes the log after a crash. See
	// DESIGN.md "Durability & recovery".
	WAL bool
	// WALDir is the log directory; default "<store path>.wal".
	WALDir string
	// WALSegmentBytes rotates log segments past this size (default 1 MiB).
	WALSegmentBytes int64
	// WALCheckpointBytes triggers a fuzzy checkpoint once this many log
	// bytes accumulate (default 4 MiB).
	WALCheckpointBytes int64
	// WALFS substitutes the filesystem the log writes through; nil means
	// the OS. The crash-injection harness uses it to kill the log
	// mid-write.
	WALFS WALFS
}

// Store owns one paged file and its buffer pool; all indexes built through
// it share both, so experiment costs are observed the way the paper's
// storage manager observes them.
type Store struct {
	file *pagefile.File
	pool *bufferpool.Pool
	// tracer is the store's default tracer, restored when an AttachStats
	// sink with its own tracer detaches.
	tracer Tracer
	// wal is the write-ahead log, nil unless StoreOptions.WAL (see
	// durability.go); recovery is the report of the open-time redo pass.
	wal      *wal.Log
	recovery *RecoveryReport
}

func newStore(file *pagefile.File, opts StoreOptions) (*Store, error) {
	frames := opts.BufferPages
	if frames == 0 {
		frames = bufferpool.DefaultFrames
	}
	pool, err := bufferpool.NewWithConfig(file, bufferpool.Config{
		Capacity: frames,
		Shards:   opts.PoolShards,
		Policy:   opts.PoolPolicy,
		Prefetch: opts.Prefetch,
	})
	if err != nil {
		file.Close()
		return nil, err
	}
	s := &Store{file: file, pool: pool, tracer: opts.Tracer}
	if opts.Tracer != nil {
		file.SetTracer(opts.Tracer)
	}
	if file.NumPages() == 1 {
		// Fresh file: reserve page 1 as the catalog head before anything
		// else is allocated (see catalog.go).
		id, data, err := pool.FetchNew()
		if err != nil {
			file.Close()
			return nil, err
		}
		putCatU32(data[catOffMagic:], catMagic)
		putCatU32(data[catOffNext:], uint32(pagefile.InvalidPage))
		putCatU16(data[catOffCount:], 0)
		if err := pool.Unpin(id, true); err != nil {
			file.Close()
			return nil, err
		}
	}
	return s, nil
}

// CreateStore creates a store backed by a new file at path.
func CreateStore(path string, opts StoreOptions) (*Store, error) {
	file, err := pagefile.Create(path, pagefile.Options{PageSize: opts.PageSize})
	if err != nil {
		return nil, err
	}
	s, err := newStore(file, opts)
	if err != nil || !opts.WAL {
		return s, err
	}
	if err := s.startWAL(path, opts, 0); err != nil {
		s.Close()
		return nil, fmt.Errorf("xrtree: start log: %w", err)
	}
	return s, nil
}

// NewMemStore creates a store backed by memory — identical behavior and
// cost accounting, no filesystem.
func NewMemStore(opts StoreOptions) (*Store, error) {
	if opts.WAL {
		return nil, errors.New("xrtree: WAL requires a file-backed store")
	}
	return newStore(pagefile.NewMem(pagefile.Options{PageSize: opts.PageSize}), opts)
}

// Close stops the pool's background workers, then flushes and closes the
// underlying file. With a WAL attached it also fsyncs the page file and
// writes a clean-shutdown record, so the next open skips redo and keeps
// the free list.
func (s *Store) Close() error {
	s.pool.Close()
	if err := s.pool.FlushAll(); err != nil {
		if s.wal != nil {
			s.wal.Abandon()
		}
		s.file.Close()
		return err
	}
	if s.wal != nil {
		if err := s.file.Sync(); err != nil {
			s.wal.Abandon()
			s.file.Close()
			return err
		}
		if err := s.wal.CloseClean(); err != nil {
			s.file.Close()
			return err
		}
	}
	return s.file.Close()
}

// DropCache evicts all clean pages from the buffer pool, cold-starting the
// next measurement deterministically.
func (s *Store) DropCache() error { return s.pool.DropClean() }

// AttachStats directs buffer-pool hit/miss accounting to st (nil detaches).
// When st carries a Tracer, physical-I/O events are routed to it for the
// duration of the attachment; detaching restores the store's own tracer.
func (s *Store) AttachStats(st *Stats) {
	s.pool.SetSink(st)
	if st != nil && st.Tracer != nil {
		s.file.SetTracer(st.Tracer)
	} else {
		s.file.SetTracer(s.tracer)
	}
}

// PoolStats returns the buffer pool's cumulative counters.
func (s *Store) PoolStats() Stats { return s.pool.Stats() }

// PinnedPages returns the number of buffer-pool frames currently pinned.
// A quiesced store reports 0; the serving layer exposes this so load tests
// can assert that canceled queries leak no pins.
func (s *Store) PinnedPages() int { return s.pool.PinnedCount() }

// FileStats returns the paged file's physical I/O counters.
func (s *Store) FileStats() Stats { return s.file.Stats() }

// IndexOptions selects which access paths IndexElements builds.
type IndexOptions struct {
	// SkipList, SkipBTree, SkipXRTree drop the respective access path;
	// by default all three are built so every algorithm can run.
	SkipList   bool
	SkipBTree  bool
	SkipXRTree bool
	// Fill is the bulk-load page occupancy in (0,1]; 0 means packed.
	Fill float64
	// InsertBuild builds the XR-tree by repeated insertion instead of bulk
	// loading (exercises the dynamic maintenance path of §4).
	InsertBuild bool
	// DisableKeyChoice turns off the §3.2 separator optimization (ablation).
	DisableKeyChoice bool
}

// ElementSet is one indexed element set: the operand of structural joins.
type ElementSet struct {
	store *Store
	els   []Element

	list *elemlist.List
	bt   *btree.Tree
	xr   *core.Tree

	// sib caches the containment sibling table for the B+sp variant,
	// built once (safe under concurrent joins).
	sibOnce sync.Once
	sib     join.SiblingTable
}

// siblingSource lazily builds the B+sp sibling pointers over the set.
func (e *ElementSet) siblingSource() (join.SiblingListSource, error) {
	e.sibOnce.Do(func() { e.sib = join.BuildSiblingTable(e.els) })
	return join.SiblingListSource{L: e.list, Sib: e.sib}, nil
}

// ErrNoAccessPath is returned when a join algorithm needs an access path
// the set was built without.
var ErrNoAccessPath = errors.New("xrtree: element set lacks the required access path")

// IndexElements stores es (start-sorted, one document) and builds the
// requested access paths over it.
func (s *Store) IndexElements(es []Element, opts IndexOptions) (*ElementSet, error) {
	if len(es) == 0 {
		return nil, errors.New("xrtree: empty element set")
	}
	set := &ElementSet{store: s, els: es}
	var err error
	if !opts.SkipList {
		if set.list, err = elemlist.Build(s.pool, es); err != nil {
			return nil, fmt.Errorf("xrtree: element list: %w", err)
		}
	}
	if !opts.SkipBTree {
		if set.bt, err = btree.New(s.pool, es[0].DocID); err != nil {
			return nil, err
		}
		if err := set.bt.BulkLoad(es, opts.Fill); err != nil {
			return nil, fmt.Errorf("xrtree: B+-tree build: %w", err)
		}
	}
	if !opts.SkipXRTree {
		if set.xr, err = core.New(s.pool, es[0].DocID, core.Options{DisableKeyChoice: opts.DisableKeyChoice}); err != nil {
			return nil, err
		}
		if opts.InsertBuild {
			for _, e := range es {
				if err := set.xr.Insert(e); err != nil {
					return nil, fmt.Errorf("xrtree: XR-tree insert: %w", err)
				}
			}
		} else if err := set.xr.BulkLoad(es, opts.Fill); err != nil {
			return nil, fmt.Errorf("xrtree: XR-tree build: %w", err)
		}
	}
	return set, nil
}

// Len returns the number of elements in the set.
func (e *ElementSet) Len() int { return len(e.els) }

// Elements returns the underlying start-sorted element slice (shared; do
// not modify).
func (e *ElementSet) Elements() []Element { return e.els }

// List exposes the set's paged element list — the sequential access path
// the no-index algorithms scan. Its iterator publishes windowed readahead
// hints when the store runs with StoreOptions.Prefetch.
func (e *ElementSet) List() (*elemlist.List, error) {
	if e.list == nil {
		return nil, ErrNoAccessPath
	}
	return e.list, nil
}

// BTree exposes the set's B+-tree baseline for direct use of its lookup,
// scan, and update operations.
func (e *ElementSet) BTree() (*btree.Tree, error) {
	if e.bt == nil {
		return nil, ErrNoAccessPath
	}
	return e.bt, nil
}

// XRTree exposes the set's XR-tree for direct use of the §5.1 operations
// (FindAncestors, FindDescendants, FindParent, FindChildren) and the §4
// update operations (Insert, Delete).
func (e *ElementSet) XRTree() (*core.Tree, error) {
	if e.xr == nil {
		return nil, ErrNoAccessPath
	}
	return e.xr, nil
}

// FindAncestors returns the set elements that are strict ancestors of a
// region starting at sd, using the XR-tree (Algorithm 4, Theorem 4).
func (e *ElementSet) FindAncestors(sd uint32, st *Stats) ([]Element, error) {
	if e.xr == nil {
		return nil, ErrNoAccessPath
	}
	return e.xr.FindAncestors(sd, 0, st)
}

// FindDescendants returns the set elements strictly inside (sa, ea), using
// the XR-tree backbone (Algorithm 3, Theorem 3).
func (e *ElementSet) FindDescendants(sa, ea uint32, st *Stats) ([]Element, error) {
	if e.xr == nil {
		return nil, ErrNoAccessPath
	}
	return e.xr.FindDescendants(sa, ea, st)
}

// StabStats returns the XR-tree's stab-list footprint: elements held in
// stab lists and stab pages allocated (§3.3).
func (e *ElementSet) StabStats() (elements, pages int, err error) {
	if e.xr == nil {
		return 0, 0, ErrNoAccessPath
	}
	elements, pages = e.xr.StabStats()
	return elements, pages, nil
}

// Algorithm names a structural-join algorithm of §6.1 Table 1.
type Algorithm int

// The four algorithms of the performance study (plus MPMGJN).
const (
	// AlgNoIndex is Stack-Tree-Desc over plain sorted lists ("no-index").
	AlgNoIndex Algorithm = iota
	// AlgMPMGJN is the multi-predicate merge join baseline.
	AlgMPMGJN
	// AlgBPlus is Anc_Des_B+ over B+-tree indexed inputs ("B+").
	AlgBPlus
	// AlgBPlusSP is the sibling-pointer variant of B+ ("B+sp") — the paper
	// measured it, found it "similar to B+", and omitted the results;
	// BenchmarkBPlusSP reproduces that finding.
	AlgBPlusSP
	// AlgXRStack is Algorithm 6 over XR-tree indexed inputs ("XR-stack").
	AlgXRStack
)

// String returns the paper's notation for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgNoIndex:
		return "no-index"
	case AlgMPMGJN:
		return "MPMGJN"
	case AlgBPlus:
		return "B+"
	case AlgBPlusSP:
		return "B+sp"
	case AlgXRStack:
		return "XR-stack"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms lists the algorithms the paper's tables present, in order.
var Algorithms = []Algorithm{AlgNoIndex, AlgBPlus, AlgXRStack}

// Mode selects ancestor-descendant ("//") or parent-child ("/") semantics.
type Mode = join.Mode

// Join relationship modes.
const (
	AncestorDescendant = join.AncestorDescendant
	ParentChild        = join.ParentChild
)

// EmitFunc receives result pairs from Join.
type EmitFunc = join.EmitFunc

// Pair is a materialized join result.
type Pair = join.Pair

// Join runs the structural join between ancestor set a and descendant set d
// with the chosen algorithm, streaming result pairs to emit and accounting
// costs into st (both may be nil). When st.Ctx is canceled or its deadline
// passes, the join stops at its next poll point — a page boundary of an
// index or list scan, or a fixed element stride — releasing every page pin
// on the way out, and returns the context's error (context.Canceled or
// context.DeadlineExceeded).
func Join(alg Algorithm, mode Mode, a, d *ElementSet, emit EmitFunc, st *Stats) error {
	if emit == nil {
		emit = func(Element, Element) {}
	}
	switch alg {
	case AlgNoIndex:
		if a.list == nil || d.list == nil {
			return ErrNoAccessPath
		}
		return join.StackTreeDesc(mode, join.ListSource{L: a.list}, join.ListSource{L: d.list}, emit, st)
	case AlgMPMGJN:
		if a.list == nil || d.list == nil {
			return ErrNoAccessPath
		}
		return join.MPMGJN(mode, join.ListSource{L: a.list}, join.ListSource{L: d.list}, emit, st)
	case AlgBPlus:
		if a.bt == nil || d.bt == nil {
			return ErrNoAccessPath
		}
		return join.BPlus(mode, join.BTreeSource{T: a.bt}, join.BTreeSource{T: d.bt}, emit, st)
	case AlgBPlusSP:
		if a.list == nil || d.bt == nil {
			return ErrNoAccessPath
		}
		src, err := a.siblingSource()
		if err != nil {
			return err
		}
		return join.BPlusSP(mode, src, join.BTreeSource{T: d.bt}, emit, st)
	case AlgXRStack:
		if a.xr == nil || d.xr == nil {
			return ErrNoAccessPath
		}
		return join.XRStack(mode, join.XRTreeSource{T: a.xr}, join.XRTreeSource{T: d.xr}, emit, st)
	default:
		return fmt.Errorf("xrtree: unknown algorithm %d", alg)
	}
}
