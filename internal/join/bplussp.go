package join

// The B+sp variant of Chien et al. [8]: the basic Anc_Des_B+ algorithm
// "enhanced by adding sibling pointers based on the notion of containment".
// Each element stores a pointer to its following sibling — the first
// element after it that it does not contain — so skipping a non-matching
// ancestor's subtree follows one stored pointer straight to the sibling's
// page instead of probing the B+-tree. The paper measured B+sp (and
// B+psp) and omitted the results as "similar behavior as that of B+":
// the same elements are examined, only index-node probes are saved.
// BenchmarkBPlusSP reproduces exactly that finding.

import (
	"fmt"

	"xrtree/internal/elemlist"
	"xrtree/internal/metrics"
	"xrtree/internal/obs"
	"xrtree/internal/xmldoc"
)

// SiblingTable maps each element ordinal to the ordinal of its following
// sibling: the first later element whose start exceeds this element's end.
// It is the in-memory image of the per-element sibling pointers [8] stores
// with the records.
type SiblingTable []int32

// BuildSiblingTable computes the table for a start-sorted element list in
// one stack sweep. An element whose subtree runs to the end of the list
// maps to len(es).
func BuildSiblingTable(es []xmldoc.Element) SiblingTable {
	tab := make(SiblingTable, len(es))
	type open struct {
		idx int
		end uint32
	}
	var stack []open
	for i, e := range es {
		for len(stack) > 0 && stack[len(stack)-1].end < e.Start {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			tab[top.idx] = int32(i)
		}
		stack = append(stack, open{idx: i, end: e.End})
	}
	for _, o := range stack {
		tab[o.idx] = int32(len(es))
	}
	return tab
}

// SiblingListSource couples a paged element list with its sibling table;
// the B+sp join uses it for the ancestor side.
type SiblingListSource struct {
	L   *elemlist.List
	Sib SiblingTable
}

// NewSiblingListSource builds the sibling table for the list's elements
// (which the caller must supply in the same order the list was built from).
func NewSiblingListSource(l *elemlist.List, es []xmldoc.Element) (SiblingListSource, error) {
	if l.Len() != len(es) {
		return SiblingListSource{}, fmt.Errorf("join: sibling table over %d elements for a list of %d", len(es), l.Len())
	}
	return SiblingListSource{L: l, Sib: BuildSiblingTable(es)}, nil
}

// Scan opens a sequential scan.
func (s SiblingListSource) Scan(c *metrics.Counters) (Iterator, error) { return s.L.Scan(c), nil }

// Len returns the number of elements.
func (s SiblingListSource) Len() int { return s.L.Len() }

// BPlusSP runs the sibling-pointer variant: identical pairing logic to
// BPlus, but a non-matching ancestor's subtree is skipped by following its
// stored sibling pointer (one positional page access) rather than a B+-tree
// range probe, and the descendant side advances by plain scanning (the
// variant indexes only the ancestor side's siblings).
func BPlusSP(mode Mode, a SiblingListSource, d Seeker, emit EmitFunc, c *metrics.Counters) error {
	defer startTimer(c)()
	ai, err := a.Scan(c)
	if err != nil {
		return err
	}
	di, err := d.Scan(c)
	if err != nil {
		ai.Close()
		return err
	}
	ca := newCursor(ai)
	cd := newCursor(di)
	defer func() { ca.close(); cd.close() }()
	var stack ancStack
	var pl poller
	ordinal := 0 // ordinal of ca.cur within the ancestor list

	for ca.valid && cd.valid {
		if err := pl.interrupted(c); err != nil {
			return err
		}
		stack.popNonAncestors(cd.cur.Start)
		if ca.cur.Start < cd.cur.Start {
			if cd.cur.Start < ca.cur.End {
				stack.push(ca.cur)
				ca.advance()
				ordinal++
			} else {
				// Follow the sibling pointer: the examined boundary element
				// counts as scanned, its subtree is skipped with a single
				// positional access.
				countScan(c, 1)
				c.Emit(obs.EvSkipAnc, int64(ca.cur.End+1)-int64(ca.cur.Start))
				next := int(a.Sib[ordinal])
				it, err := a.L.ScanAt(next, c)
				if err != nil {
					return err
				}
				if err := ca.replace(it); err != nil {
					return err
				}
				ordinal = next
			}
		} else {
			if !stack.empty() {
				stack.emitAll(mode, cd.cur, emit, c)
				cd.advance()
			} else {
				countScan(c, 1)
				c.Emit(obs.EvSkipDesc, int64(ca.cur.Start+1)-int64(cd.cur.Start))
				if err := cd.seek(d, ca.cur.Start+1, c); err != nil {
					return err
				}
			}
		}
	}
	if err := drainStack(mode, cd, &stack, emit, c); err != nil {
		return err
	}
	return firstErr(ca.err(), cd.err())
}
