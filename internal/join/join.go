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
// A join takes two Sources — the access paths of one element set — and an
// emit callback; every algorithm produces exactly the pairs (a, d) with
// a.start < d.start < a.end (plus the level condition in parent-child
// mode), differing only in how much work it takes to find them. All costs
// flow into the provided metrics.Counters.
package join

import (
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

// MarkableSource is a Source whose iterators can rewind (MPMGJN needs it).
type MarkableSource interface {
	ScanMarkable(c *metrics.Counters) (*elemlist.Iterator, error)
	Len() int
}

// --- source adapters ------------------------------------------------------

// ListSource adapts a paged element list (no index).
type ListSource struct{ L *elemlist.List }

// Scan opens a sequential scan.
func (s ListSource) Scan(c *metrics.Counters) (Iterator, error) { return s.L.Scan(c), nil }

// ScanMarkable opens a rewindable scan for MPMGJN.
func (s ListSource) ScanMarkable(c *metrics.Counters) (*elemlist.Iterator, error) {
	return s.L.Scan(c), nil
}

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

// --- shared helpers -------------------------------------------------------

// finger is an index iterator that repositions itself (blink.Iterator,
// the read layer's leaf-chain cursor that core and btree iterators are,
// and pathexpr's in-memory iterator, which holds everything): SeekGE
// searches the leaf copy it holds and descends from the root only when
// the key lies beyond it.
type finger interface {
	SeekGE(key uint32) error
}

// ancestorFinger is an index iterator that answers FindAncestors probes
// from its held leaf when it can (core.Iterator, and pathexpr's in-memory
// iterator).
type ancestorFinger interface {
	AppendAncestors(dst []xmldoc.Element, sd, minStart uint32) ([]xmldoc.Element, error)
}

// stepper is an iterator that consumes its current element and returns the
// next one in a single call (blink.Iterator under core and btree, and
// elemlist's iterator): Next followed by Peek, with one decode instead of
// two.
type stepper interface {
	Step() (xmldoc.Element, bool)
}

// cursor adds lazy one-element lookahead to an Iterator: cur/valid reflect
// Peek (free), and advance consumes the current element (one scan).
type cursor struct {
	it    Iterator
	s     stepper        // the iterator's Step, nil when it has none
	f     finger         // the iterator's finger, nil when it has none
	af    ancestorFinger // the iterator's ancestor probe, nil when it has none
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
	c.it = it
	c.s, _ = it.(stepper)
	c.f, _ = it.(finger)
	c.af, _ = it.(ancestorFinger)
	c.cur, c.valid = it.Peek()
}

// advance consumes the current element and peeks the next.
func (c *cursor) advance() {
	if c.s != nil {
		c.cur, c.valid = c.s.Step()
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
// the one place a join chooses between the iterator's finger seek and a
// fresh iterator from s.SeekGE, which iterators without a finger (such as
// decorated ones) fall back to.
func (c *cursor) seek(s Seeker, key uint32, m *metrics.Counters) error {
	if c.f != nil {
		err := c.f.SeekGE(key)
		c.cur, c.valid = c.it.Peek()
		return err
	}
	it, err := s.SeekGE(key, m)
	if err != nil {
		return err
	}
	return c.replace(it)
}

// ancestors appends the ancestors of sd with start > minStart, through the
// iterator's leaf-local probe when it has one and through s otherwise.
func (c *cursor) ancestors(s AncestorSeeker, dst []xmldoc.Element, sd, minStart uint32, m *metrics.Counters) ([]xmldoc.Element, error) {
	if c.af != nil {
		return c.af.AppendAncestors(dst, sd, minStart)
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

// emitAll pairs every stacked ancestor with d. One call is one output
// batch; its size flows to the tracer as a single EvOutput event. The mode
// is tested once per call, not once per pair.
func (s *ancStack) emitAll(mode Mode, d xmldoc.Element, emit EmitFunc, c *metrics.Counters) {
	var n int64
	if mode == ParentChild {
		for _, a := range s.els {
			if a.Level == d.Level-1 {
				emit(a, d)
				n++
			}
		}
	} else {
		for _, a := range s.els {
			emit(a, d)
		}
		n = int64(len(s.els))
	}
	if c != nil {
		c.OutputPairs += n
		if n > 0 {
			c.Emit(obs.EvOutput, n)
		}
	}
}
