package xrtree

// Multi-document support. The paper's structural-join definition (§2.2)
// joins (DocId, start, end, level) tuples with the condition
// a.DocId == d.DocId: input lists cover a whole collection and pairs never
// cross documents. Since region codes of different documents are
// independent, the standard evaluation is per-document joins over lists
// grouped by DocId — which is what Collection provides on top of the
// single-document machinery.

import (
	"fmt"
	"sort"

	"xrtree/internal/join"
	"xrtree/internal/metrics"
)

// Collection indexes tag sets across multiple documents and runs
// structural joins with the DocId equality condition.
type Collection struct {
	store *Store
	docs  []*IndexedDocument
	byID  map[uint32]*IndexedDocument
}

// NewCollection creates an empty collection over the store.
func (s *Store) NewCollection() *Collection {
	return &Collection{store: s, byID: make(map[uint32]*IndexedDocument)}
}

// Add registers a parsed document. DocIDs must be unique.
func (c *Collection) Add(doc *Document) error {
	if _, dup := c.byID[doc.DocID]; dup {
		return fmt.Errorf("xrtree: collection already holds DocID %d", doc.DocID)
	}
	idx := c.store.IndexDocument(doc)
	c.docs = append(c.docs, idx)
	c.byID[doc.DocID] = idx
	return nil
}

// Len returns the number of documents.
func (c *Collection) Len() int { return len(c.docs) }

// Documents returns the indexed documents in insertion order.
func (c *Collection) Documents() []*IndexedDocument {
	return append([]*IndexedDocument(nil), c.docs...)
}

// Join runs the structural join ancTag × descTag across every document of
// the collection with the given algorithm, enforcing the DocId condition
// by joining per document: it is ParallelJoin with one worker. Costs
// accumulate into st, whose Ctx, when set, cancels the run.
func (c *Collection) Join(alg Algorithm, mode Mode, ancTag, descTag string, emit EmitFunc, st *Stats) error {
	return c.ParallelJoin(alg, mode, ancTag, descTag, emit, st, ParallelJoinOptions{Workers: 1})
}

// ParallelJoinOptions configures Collection.ParallelJoin.
type ParallelJoinOptions struct {
	// Workers is the number of join goroutines; ≤ 0 selects GOMAXPROCS,
	// 1 degrades to the sequential per-document loop.
	Workers int
	// Keep, when non-nil, restricts the join to documents it accepts.
	// Since pairs never cross documents (§2.2), the filtered result is
	// exactly the unfiltered stream with the rejected documents' pairs cut
	// out — the property cluster shards rely on to serve a DocId slice.
	Keep func(docID uint32) bool
}

// ParallelJoin is Collection.Join distributed over a worker pool: the join
// partitions by DocId (pairs never cross documents, §2.2), each worker
// runs whole per-document joins, and results reach emit in document order
// — the exact pair stream of the sequential Join. Costs from every worker
// are merged into st after the pool drains, so st needs no atomicity; a
// Tracer carried by st must be safe for concurrent use (Collector is). A
// canceled or timed-out st.Ctx stops dispatching new per-document
// partitions, stops each in-flight one at its next poll point, and returns
// the context's error. Index building happens up front in the calling
// goroutine and is not parallelized.
func (c *Collection) ParallelJoin(alg Algorithm, mode Mode, ancTag, descTag string, emit EmitFunc, st *Stats, opts ParallelJoinOptions) error {
	_, err := c.parallelJoin(alg, mode, ancTag, descTag, emit, st, opts)
	return err
}

// parallelJoin is the one per-document enumeration behind every collection
// join: one task per document opts.Keep accepts that holds both tags, its
// full index sets built (or reused) up front, run by the parallel driver.
// It returns the tasks' total input size, which skip effectiveness is
// measured against.
func (c *Collection) parallelJoin(alg Algorithm, mode Mode, ancTag, descTag string, emit EmitFunc, st *Stats, opts ParallelJoinOptions) (int64, error) {
	var tasks []join.Task
	var inputs int64
	for _, idx := range c.docs {
		docID := idx.doc.DocID
		if opts.Keep != nil && !opts.Keep(docID) {
			continue
		}
		as := idx.doc.ElementsByTag(ancTag)
		ds := idx.doc.ElementsByTag(descTag)
		if len(as) == 0 || len(ds) == 0 {
			continue
		}
		a, err := idx.fullSet(ancTag, as)
		if err != nil {
			return 0, err
		}
		d, err := idx.fullSet(descTag, ds)
		if err != nil {
			return 0, err
		}
		inputs += int64(len(as) + len(ds))
		tasks = append(tasks, join.Task{
			DocID: docID,
			Run: func(emit EmitFunc, jc *metrics.Counters) error {
				if err := Join(alg, mode, a, d, emit, jc); err != nil {
					return fmt.Errorf("xrtree: DocID %d: %w", docID, err)
				}
				return nil
			},
		})
	}
	return inputs, join.Parallel(tasks, join.Options{Workers: opts.Workers}, emit, st)
}

// DocIDs returns the collection's document ids in ascending order.
func (c *Collection) DocIDs() []uint32 {
	ids := make([]uint32, 0, len(c.docs))
	for _, idx := range c.docs {
		ids = append(ids, idx.doc.DocID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// QueryDocs evaluates a path expression over every document keep accepts
// (nil keeps all) — the query-side counterpart of ParallelJoinOptions.Keep
// — and returns the union of the results, sorted by (DocID, start). Costs
// accumulate into st; a canceled or timed-out st.Ctx stops the run between
// per-document evaluations and at the pipeline's poll points within one.
func (c *Collection) QueryDocs(expr string, keep func(docID uint32) bool, st *Stats) ([]Element, error) {
	var out []Element
	for _, idx := range c.docs {
		if keep != nil && !keep(idx.doc.DocID) {
			continue
		}
		els, err := idx.Query(expr, st)
		if err != nil {
			return nil, fmt.Errorf("xrtree: DocID %d: %w", idx.doc.DocID, err)
		}
		out = append(out, els...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DocID != out[j].DocID {
			return out[i].DocID < out[j].DocID
		}
		return out[i].Start < out[j].Start
	})
	return out, nil
}
