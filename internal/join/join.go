// Package join implements the structural-join algorithms the paper
// evaluates against each other (§2.2, §5.2, §6):
//
//   - StackTreeDesc — the no-index baseline, Stack-Tree-Desc of Srivastava
//     et al. [ICDE 2002]: one sequential merge of both lists with an
//     in-memory stack ("no-index"/NIDX in the tables).
//   - MPMGJN — the multi-predicate merge join of Zhang et al. [SIGMOD
//     2001], an extra baseline that rescans the descendant list and shows
//     the redundant work stack-based algorithms remove.
//   - BPlus — Anc_Des_B+ of Chien et al. [VLDB 2002]: B+-trees on both
//     sets; skips descendants with range queries and ancestors by jumping
//     past a non-matching ancestor's subtree ("B+" in the tables).
//   - XRStack — Algorithm 6: XR-trees on both sets; skips descendants like
//     B+ and skips directly to the ancestors of the current descendant
//     with FindAncestors ("XR-stack" in the tables).
//
// A join takes two Sources — the access paths of one element set — and a
// RunFunc; every algorithm produces exactly the pairs (a, d) with
// a.start < d.start < a.end (plus the level condition in parent-child
// mode), differing only in how much work it takes to find them. It hands
// them over as runs, one call per descendant with its ancestors, in the
// pair order the per-pair form (EmitFunc) has always had. All costs flow
// into the provided metrics.Counters.
package join

import (
	"sort"

	"xrtree/internal/blink"
	"xrtree/internal/btree"
	"xrtree/internal/core"
	"xrtree/internal/elemlist"
	"xrtree/internal/metrics"
	"xrtree/internal/obs"
	"xrtree/internal/xmldoc"
)

// Mode selects the structural relationship being joined.
type Mode int

const (
	// AncestorDescendant reports all (ancestor, descendant) pairs ("//").
	AncestorDescendant Mode = iota
	// ParentChild restricts to parent-child pairs ("/"): level difference 1.
	ParentChild
)

// EmitFunc receives one result pair.
type EmitFunc func(a, d xmldoc.Element)

// RunFunc receives one run of result pairs: descendant d paired with each
// element of anc, in order — the join's whole ancestor stack (outermost
// first) in ancestor-descendant mode, the one parent in parent-child mode.
// anc is never empty, is read-only, and is valid only during the call.
type RunFunc func(anc []xmldoc.Element, d xmldoc.Element)

// EachPair adapts a per-pair callback to runs: it hands each pair of a run
// to emit (nil discards them). The EmitFunc forms of the algorithms are
// this adapter over their run forms; they are kept for bench/xrperf's
// per-pair callbacks (ROADMAP item 26).
func EachPair(emit EmitFunc) RunFunc {
	if emit == nil {
		return func([]xmldoc.Element, xmldoc.Element) {}
	}
	return func(anc []xmldoc.Element, d xmldoc.Element) {
		for _, a := range anc {
			emit(a, d)
		}
	}
}

// Pair is a materialized join result, used by tests and examples.
type Pair struct {
	A, D xmldoc.Element
}

// Collect returns an EmitFunc that appends pairs to *dst.
func Collect(dst *[]Pair) EmitFunc {
	return func(a, d xmldoc.Element) { *dst = append(*dst, Pair{A: a, D: d}) }
}

// Iterator is the sequential cursor every source provides. Next consumes an
// element (which counts as one element scanned, the paper's Table 2/3
// metric); Peek examines without consuming — cursor positioning after an
// index seek is index probing, not an element scan, which is how the paper
// accounts the indexed algorithms.
type Iterator interface {
	Next() (xmldoc.Element, bool)
	Peek() (xmldoc.Element, bool)
	Err() error
	Close() error
}

// Source is a start-sorted element set reachable by sequential scan.
type Source interface {
	Scan(c *metrics.Counters) (Iterator, error)
	Len() int
}

// Seeker is a Source with an index on start positions (B+-tree or XR-tree):
// SeekGE is the range-query primitive used to skip elements.
type Seeker interface {
	Source
	SeekGE(start uint32, c *metrics.Counters) (Iterator, error)
}

// AncestorSeeker is a Seeker that can also retrieve all ancestors of a
// position — the XR-tree's FindAncestors, in append form so a join loop
// can reuse one scratch buffer across probes.
type AncestorSeeker interface {
	Seeker
	AppendAncestors(dst []xmldoc.Element, sd, minStart uint32, c *metrics.Counters) ([]xmldoc.Element, error)
}

// PrefetchSeeker has no implementer; it stays because bench/xrperf names it.
type PrefetchSeeker interface {
	PrefetchGE(key uint32, c *metrics.Counters)
}

// --- source adapters ------------------------------------------------------

// ListSource adapts a paged element list (no index).
type ListSource struct{ L *elemlist.List }

// Scan opens a sequential scan.
func (s ListSource) Scan(c *metrics.Counters) (Iterator, error) { return s.L.Scan(c), nil }

// Len returns the number of elements.
func (s ListSource) Len() int { return s.L.Len() }

// BTreeSource adapts a B+-tree-indexed element set.
type BTreeSource struct{ T *btree.Tree }

// Scan opens a full scan over the leaf chain.
func (s BTreeSource) Scan(c *metrics.Counters) (Iterator, error) { return s.T.Scan(c) }

// SeekGE opens a scan at the first element with start ≥ key.
func (s BTreeSource) SeekGE(key uint32, c *metrics.Counters) (Iterator, error) {
	return s.T.SeekGE(key, c)
}

// Len returns the number of elements.
func (s BTreeSource) Len() int { return s.T.Len() }

// XRTreeSource adapts an XR-tree-indexed element set.
type XRTreeSource struct{ T *core.Tree }

// Scan opens a full scan over the leaf chain.
func (s XRTreeSource) Scan(c *metrics.Counters) (Iterator, error) { return s.T.Scan(c) }

// SeekGE opens a scan at the first element with start ≥ key.
func (s XRTreeSource) SeekGE(key uint32, c *metrics.Counters) (Iterator, error) {
	return s.T.SeekGE(key, c)
}

// AppendAncestors appends the ancestors of sd with start > minStart.
func (s XRTreeSource) AppendAncestors(dst []xmldoc.Element, sd, minStart uint32, c *metrics.Counters) ([]xmldoc.Element, error) {
	return s.T.AppendAncestors(dst, sd, minStart, c)
}

// Len returns the number of elements.
func (s XRTreeSource) Len() int { return s.T.Len() }

// SliceSource adapts an in-memory start-sorted element slice — an
// intermediate result of a path-expression pipeline — so it joins without
// being re-indexed: SeekGE and FindAncestors are binary searches.
type SliceSource struct{ Els []xmldoc.Element }

// Scan opens an iterator over the whole slice.
func (s SliceSource) Scan(c *metrics.Counters) (Iterator, error) {
	return &sliceIterator{els: s.Els, c: c}, nil
}

// SeekGE opens an iterator at the first element with start ≥ key.
func (s SliceSource) SeekGE(key uint32, c *metrics.Counters) (Iterator, error) {
	return &sliceIterator{els: s.Els, idx: searchGE(s.Els, key), c: c}, nil
}

// AppendAncestors appends the elements strictly containing sd with start
// beyond minStart.
func (s SliceSource) AppendAncestors(dst []xmldoc.Element, sd, minStart uint32, c *metrics.Counters) ([]xmldoc.Element, error) {
	return appendAncestors(s.Els, dst, sd, minStart, c), nil
}

// Len returns the number of elements.
func (s SliceSource) Len() int { return len(s.Els) }

// sliceIterator walks a SliceSource's slice. It holds the whole slice, so
// the cursor answers its seeks and ancestor probes in place; they count no
// finger hits, since it holds no leaf copy.
type sliceIterator struct {
	els []xmldoc.Element
	idx int
	c   *metrics.Counters
}

func (it *sliceIterator) Next() (xmldoc.Element, bool) {
	e, ok := it.Peek()
	if ok {
		it.idx++
		countScan(it.c, 1)
	}
	return e, ok
}

func (it *sliceIterator) Peek() (xmldoc.Element, bool) {
	if it.idx >= len(it.els) {
		return xmldoc.Element{}, false
	}
	return it.els[it.idx], true
}

func (it *sliceIterator) Err() error   { return nil }
func (it *sliceIterator) Close() error { return nil }

// appendAncestors appends the elements of els strictly containing sd with
// start beyond minStart, by scanning left of sd's position with subtree
// skips — the in-memory analogue of Algorithm 4's leaf phase.
func appendAncestors(els, dst []xmldoc.Element, sd, minStart uint32, c *metrics.Counters) []xmldoc.Element {
	hi := searchGE(els, sd)
	lo := 0
	if minStart > 0 {
		lo = sort.Search(hi, func(i int) bool { return els[i].Start > minStart })
	}
	for i := lo; i < hi; {
		e := els[i]
		if e.End <= sd {
			// Skip e's subtree: nothing inside can contain sd, and the
			// subtree ends before sd's position.
			rest := els[i+1 : hi]
			i += 1 + sort.Search(len(rest), func(j int) bool { return rest[j].Start > e.End })
			continue
		}
		countScan(c, 1)
		dst = append(dst, e)
		i++
	}
	return dst
}

// searchGE returns the index of the first element of els with start ≥ key.
func searchGE(els []xmldoc.Element, key uint32) int {
	return sort.Search(len(els), func(i int) bool { return els[i].Start >= key })
}

// --- shared helpers -------------------------------------------------------

// cursor adds lazy one-element lookahead to an Iterator: cur/valid reflect
// Peek (free), and advance consumes the current element (one scan).
//
// bind resolves the iterator to one of four concrete kinds once. A step of
// a paged kind (core or btree leaf chain, paged list) that stays on the
// page the iterator holds is an inlined StepInPage (or PeekInPage after a
// finger seek) plus one decode, with no interface call; at a page end the
// cursor calls Next then Peek, which make the page hop and so the
// cancellation poll, the leaf read and the corruption check. A slice
// iterator is stepped, sought and probed on its slice directly. Any other
// iterator — a decorated one — goes through the Iterator interface, and
// its seeks and probes through the Seeker and AncestorSeeker.
type cursor struct {
	it    Iterator
	bl    *blink.Iterator    // the leaf-chain cursor of a core or btree iterator
	xr    *core.Iterator     // a core iterator, for leaf-local ancestor probes
	el    *elemlist.Iterator // a paged-list iterator
	sl    *sliceIterator     // an in-memory slice iterator
	doc   uint32             // DocID of every element bl or el returns
	cur   xmldoc.Element
	valid bool
}

func newCursor(it Iterator) *cursor {
	c := &cursor{}
	c.bind(it)
	return c
}

// bind makes it the underlying iterator and primes the lookahead without
// consuming anything.
func (c *cursor) bind(it Iterator) {
	*c = cursor{it: it}
	switch it := it.(type) {
	case *core.Iterator:
		c.bl, c.xr, c.doc = &it.Iterator, it, it.DocID()
	case *blink.Iterator:
		c.bl, c.doc = it, it.DocID()
	case *elemlist.Iterator:
		c.el, c.doc = it, it.DocID()
	case *sliceIterator:
		c.sl = it
	}
	c.peek()
}

// decode makes the entry at off of a page the cursor's current element.
// It is the one decode site of the paged iterators' in-page steps.
func (c *cursor) decode(page []byte, off int) {
	c.cur, _ = xmldoc.DecodeElement(page[off:])
	c.cur.DocID = c.doc
	c.valid = true
}

// peek reads the current element without consuming it.
func (c *cursor) peek() {
	switch {
	case c.bl != nil:
		if page, off, ok := c.bl.PeekInPage(); ok {
			c.decode(page, off)
			return
		}
	case c.el != nil:
		if page, off, ok := c.el.PeekInPage(); ok {
			c.decode(page, off)
			return
		}
	case c.sl != nil:
		c.cur, c.valid = c.sl.Peek()
		return
	}
	c.cur, c.valid = c.it.Peek()
}

// advance consumes the current element and peeks the next.
func (c *cursor) advance() {
	switch {
	case c.bl != nil:
		if page, off, ok := c.bl.StepInPage(); ok {
			c.decode(page, off)
			return
		}
	case c.el != nil:
		if page, off, ok := c.el.StepInPage(); ok {
			c.decode(page, off)
			return
		}
	case c.sl != nil:
		c.sl.Next()
		c.cur, c.valid = c.sl.Peek()
		return
	}
	c.it.Next()
	c.cur, c.valid = c.it.Peek()
}

// replace swaps the underlying iterator (after an index seek), closing the
// old one.
func (c *cursor) replace(it Iterator) error {
	err := c.it.Close()
	c.bind(it)
	return err
}

// seek positions the cursor at the first element with start ≥ key. It is
// the one place a join chooses between an in-place seek — the leaf
// chain's finger or the slice's binary search — and a fresh iterator from
// s.SeekGE, which decorated iterators fall back to.
func (c *cursor) seek(s Seeker, key uint32, m *metrics.Counters) error {
	var err error
	switch {
	case c.bl != nil:
		err = c.bl.SeekGE(key)
	case c.sl != nil:
		c.sl.idx = searchGE(c.sl.els, key)
	default:
		var it Iterator
		if it, err = s.SeekGE(key, m); err != nil {
			return err
		}
		return c.replace(it)
	}
	c.peek()
	return err
}

// ancestors appends the ancestors of sd with start > minStart, through the
// iterator's leaf-local probe or its slice when it has one and through s
// otherwise.
func (c *cursor) ancestors(s AncestorSeeker, dst []xmldoc.Element, sd, minStart uint32, m *metrics.Counters) ([]xmldoc.Element, error) {
	switch {
	case c.xr != nil:
		return c.xr.AppendAncestors(dst, sd, minStart)
	case c.sl != nil:
		return appendAncestors(c.sl.els, dst, sd, minStart, c.sl.c), nil
	}
	return s.AppendAncestors(dst, sd, minStart, m)
}

func (c *cursor) close() error { return c.it.Close() }

func (c *cursor) err() error { return c.it.Err() }

// pollEvery is the cancellation-poll stride of the join loops. Indexed
// sources already poll the attached context at page boundaries; the stride
// poll bounds the cancellation latency of purely in-memory sources (the
// path-expression pipeline's intermediate results) to a few thousand
// elements without adding a context check to every iteration.
const pollEvery = 1024

// poller polls Counters.Interrupted once every pollEvery ticks.
type poller struct{ n uint32 }

func (p *poller) interrupted(c *metrics.Counters) error {
	if p.n++; p.n&(pollEvery-1) != 0 {
		return nil
	}
	return c.Interrupted()
}

// matches applies the mode's pair condition.
func matches(mode Mode, a, d xmldoc.Element) bool {
	if mode == ParentChild {
		return a.Level == d.Level-1
	}
	return true
}

// stack of ancestors of the current descendant, outermost first.
type ancStack struct {
	els []xmldoc.Element
}

func (s *ancStack) push(e xmldoc.Element) { s.els = append(s.els, e) }

func (s *ancStack) empty() bool { return len(s.els) == 0 }

func (s *ancStack) topStart() uint32 {
	if len(s.els) == 0 {
		return 0
	}
	return s.els[len(s.els)-1].Start
}

// popNonAncestors removes stack elements that cannot contain a region
// starting at start (their end precedes it).
func (s *ancStack) popNonAncestors(start uint32) {
	for len(s.els) > 0 && s.els[len(s.els)-1].End < start {
		s.els = s.els[:len(s.els)-1]
	}
}

// emitAll pairs the stacked ancestors that match d with it: the whole
// stack as one run in ancestor-descendant mode, each element one level
// above d as a run of one in parent-child mode. One call is one output
// batch; its size flows to the tracer as a single EvOutput event.
func (s *ancStack) emitAll(mode Mode, d xmldoc.Element, run RunFunc, c *metrics.Counters) {
	var n int64
	if mode == ParentChild {
		for i, a := range s.els {
			if a.Level == d.Level-1 {
				run(s.els[i:i+1], d)
				n++
			}
		}
	} else if n = int64(len(s.els)); n > 0 {
		run(s.els, d)
	}
	if c != nil {
		c.OutputPairs += n
		if n > 0 {
			c.Emit(obs.EvOutput, n)
		}
	}
}
