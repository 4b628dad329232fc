package xrtree

// Path-expression evaluation over an indexed document: the paper's §7
// future work, built as a pipeline of XR-stack structural joins (see
// internal/pathexpr).

import (
	"sync"

	"xrtree/internal/core"
	"xrtree/internal/pathexpr"
	"xrtree/internal/xmldoc"
)

// IndexedDocument couples a parsed document with a store, indexing each
// tag's element set lazily on first use so path queries can run step by
// step over XR-trees. Safe for concurrent queries: the lazy per-tag index
// construction is serialized by a mutex, so two racing queries for one tag
// build its indexes exactly once.
type IndexedDocument struct {
	store *Store
	doc   *Document

	// mu guards sets. Index building happens under the lock: builds write
	// through the shared buffer pool, and racing builders for one tag would
	// otherwise both index it (and racing map writes are fatal).
	mu   sync.Mutex
	sets map[string]*ElementSet
}

// IndexDocument prepares doc for path queries against s. Indexes are built
// lazily per tag.
func (s *Store) IndexDocument(doc *Document) *IndexedDocument {
	return &IndexedDocument{store: s, doc: doc, sets: make(map[string]*ElementSet)}
}

// Document returns the underlying parsed document.
func (d *IndexedDocument) Document() *Document { return d.doc }

// Set returns (building if needed) the indexed element set for one tag.
// The pseudo-tag "*" indexes every element. Tags with no elements return
// (nil, nil).
func (d *IndexedDocument) Set(tag string) (*ElementSet, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if set, ok := d.sets[tag]; ok {
		return set, nil
	}
	var els []Element
	if tag == "*" {
		els = d.doc.AllElements()
	} else {
		els = d.doc.ElementsByTag(tag)
	}
	if len(els) == 0 {
		d.sets[tag] = nil
		return nil, nil
	}
	set, err := d.store.IndexElements(els, IndexOptions{SkipList: true, SkipBTree: true})
	if err != nil {
		return nil, err
	}
	d.sets[tag] = set
	return set, nil
}

// fullSet returns (building if needed) the all-access-paths indexed set for
// tag over els — what collection joins need, unlike path queries which only
// build XR-trees. A cached XR-only set from a prior path query is upgraded.
func (d *IndexedDocument) fullSet(tag string, els []Element) (*ElementSet, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if set, ok := d.sets[tag]; ok && set != nil && set.list != nil && set.bt != nil {
		return set, nil
	}
	set, err := d.store.IndexElements(els, IndexOptions{})
	if err != nil {
		return nil, err
	}
	d.sets[tag] = set
	return set, nil
}

// XRTreeForTag implements pathexpr.SetProvider.
func (d *IndexedDocument) XRTreeForTag(tag string) (*core.Tree, error) {
	set, err := d.Set(tag)
	if err != nil || set == nil {
		return nil, err
	}
	return set.XRTree()
}

// Query evaluates a path expression such as "department//employee/name"
// over the document, returning the elements matching the final step sorted
// by start. A leading axis defaults to '//'. Steps may use the "*"
// wildcard, "@attr"/"#text" node tests (when the document was parsed with
// those nodes materialized), and bracketed existence predicates evaluated
// as structural semi-joins: "employee[email]//name". Costs accumulate into
// st; a canceled or timed-out st.Ctx stops the pipeline at its next poll
// point (a step boundary, a page boundary, or an element stride) and
// returns the context's error.
func (d *IndexedDocument) Query(expr string, st *Stats) ([]Element, error) {
	p, err := pathexpr.Parse(expr)
	if err != nil {
		return nil, err
	}
	return pathexpr.Evaluate(p, d, st)
}

// QueryNodes is Query with results resolved back to document nodes (tag,
// text, children) via their Ref locators.
func (d *IndexedDocument) QueryNodes(expr string, st *Stats) ([]*Node, error) {
	els, err := d.Query(expr, st)
	if err != nil {
		return nil, err
	}
	nodes := make([]*Node, 0, len(els))
	for _, e := range els {
		if n, ok := d.doc.Node(e.Ref); ok {
			nodes = append(nodes, n)
		}
	}
	return nodes, nil
}

// Node re-exports the document tree node type (tag, text, parent/children
// links) so QueryNodes results are self-contained.
type Node = xmldoc.Node
