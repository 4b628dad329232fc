package join

import (
	"time"

	"xrtree/internal/metrics"
	"xrtree/internal/obs"
	"xrtree/internal/xmldoc"
)

// StackTreeDesc runs the no-index baseline (Stack-Tree-Desc, [22]): a
// single synchronized pass over both lists with a stack of open ancestors.
// Every element of both inputs is scanned exactly once whether or not it
// joins — the cost profile the "no-index" rows of Tables 2 and 3 show.
func StackTreeDesc(mode Mode, a, d Source, emit EmitFunc, c *metrics.Counters) error {
	defer startTimer(c)()
	ai, err := a.Scan(c)
	if err != nil {
		return err
	}
	defer ai.Close()
	di, err := d.Scan(c)
	if err != nil {
		return err
	}
	defer di.Close()

	ca := newCursor(ai)
	cd := newCursor(di)
	var stack ancStack
	var pl poller

	for cd.valid && (ca.valid || !stack.empty()) {
		if err := pl.interrupted(c); err != nil {
			return err
		}
		if ca.valid && ca.cur.Start < cd.cur.Start {
			stack.popNonAncestors(ca.cur.Start)
			stack.push(ca.cur)
			ca.advance()
		} else {
			stack.popNonAncestors(cd.cur.Start)
			stack.emitAll(mode, cd.cur, emit, c)
			cd.advance()
		}
	}
	return firstErr(ca.err(), cd.err())
}

// MPMGJN runs the multi-predicate merge join of Zhang et al. [25]: for each
// ancestor it rescans the descendant list from a slowly advancing mark, so
// nested ancestors re-read the same descendants — the redundant I/O that
// motivated the stack-based family. It rewinds its descendant scan, so the
// descendants are a paged list, whose iterator can Mark and Restore.
func MPMGJN(mode Mode, a Source, d ListSource, emit EmitFunc, c *metrics.Counters) error {
	defer startTimer(c)()
	ai, err := a.Scan(c)
	if err != nil {
		return err
	}
	defer ai.Close()
	di := d.L.Scan(c)
	defer di.Close()

	mark := di.Mark()
	ca := newCursor(ai)
	var pl poller
	for ca.valid {
		if err := pl.interrupted(c); err != nil {
			return err
		}
		av := ca.cur
		if err := di.Restore(mark); err != nil {
			return err
		}
		var emitted int64
		for {
			dv, ok := di.Next()
			if !ok {
				break
			}
			if dv.Start <= av.Start {
				// dv can never join a later ancestor either: advance the mark.
				mark = di.Mark()
				continue
			}
			if dv.Start >= av.End {
				break
			}
			if matches(mode, av, dv) {
				emit(av, dv)
				emitted++
				if c != nil {
					c.OutputPairs++
				}
			}
		}
		if emitted > 0 {
			c.Emit(obs.EvOutput, emitted)
		}
		if di.Err() != nil {
			return di.Err()
		}
		ca.advance()
	}
	return ca.err()
}

// BPlus runs Anc_Des_B+ of Chien et al. [8] over B+-tree indexed inputs:
// descendants are skipped with range queries (seek to the current
// ancestor's start) and a non-matching ancestor's whole subtree is skipped
// by seeking past its end — the best a start-keyed B+-tree can do, which is
// why it degenerates toward the no-index scan on flat ancestor sets
// (Figure 7(b)).
func BPlus(mode Mode, a, d Seeker, emit EmitFunc, c *metrics.Counters) error {
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

	for ca.valid && cd.valid {
		if err := pl.interrupted(c); err != nil {
			return err
		}
		stack.popNonAncestors(cd.cur.Start)
		if ca.cur.Start < cd.cur.Start {
			if cd.cur.Start < ca.cur.End {
				// Current ancestor contains the current descendant.
				stack.push(ca.cur)
				ca.advance()
			} else {
				// No match: nothing inside ca can contain cd either; jump
				// past ca's subtree in the ancestor list. The examined
				// boundary element counts as scanned (its subtree does not),
				// matching the paper's B+ accounting.
				countScan(c, 1)
				c.Emit(obs.EvSkipAnc, int64(ca.cur.End+1)-int64(ca.cur.Start))
				if err := ca.seek(a, ca.cur.End+1, c); err != nil {
					return err
				}
			}
		} else {
			if !stack.empty() {
				stack.emitAll(mode, cd.cur, emit, c)
				cd.advance()
			} else {
				// Skip descendants that precede every remaining ancestor;
				// the examined boundary descendant counts as scanned.
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

func countScan(c *metrics.Counters, n int64) {
	if c != nil {
		c.ElementsScanned += n
	}
}

// XRStack runs Algorithm 6 over XR-tree indexed inputs. When the ancestor
// cursor falls behind the current descendant it calls FindAncestors to jump
// directly to the descendant's ancestors — skipping every non-matching
// ancestor in between, which the B+ algorithm cannot do — then advances the
// ancestor cursor past the descendant's start (line 12). Descendant
// skipping (line 19) is the same range query B+ uses. Both probes and both
// seeks go to the cursors' fingers first, so a step whose targets lie in
// the leaves the cursors already hold costs no descent.
func XRStack(mode Mode, a AncestorSeeker, d Seeker, emit EmitFunc, c *metrics.Counters) error {
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

	for ca.valid && cd.valid {
		if err := pl.interrupted(c); err != nil {
			return err
		}
		// Line 5-7: pop stacked elements that are not ancestors of CurD.
		stack.popNonAncestors(cd.cur.Start)
		if ca.cur.Start < cd.cur.Start {
			// Lines 9-13: fetch CurD's ancestors beyond the stack top, push
			// them, report all pairs, and advance both cursors. Every
			// ancestor not already stacked starts at or after CurA (earlier
			// ones were pushed by previous FindAncestors calls or cannot
			// contain CurD anymore), so the probe is bounded below by both
			// the stack top and CurA — keeping its cost proportional to the
			// new ancestors found, per Theorem 4.
			minStart := stack.topStart()
			if ca.cur.Start-1 > minStart {
				minStart = ca.cur.Start - 1
			}
			// The probe appends the ancestors, sorted by start, straight
			// onto the stack: they nest inside its top.
			stack.els, err = ca.ancestors(a, stack.els, cd.cur.Start, minStart, c)
			if err != nil {
				return err
			}
			stack.emitAll(mode, cd.cur, emit, c)
			// Line 12 seeks the first ancestor with start > CurD.start; we
			// seek to ≥ so an element starting exactly at CurD.start (only
			// possible in a self-join) stays visible as a future ancestor.
			c.Emit(obs.EvSkipAnc, int64(cd.cur.Start)-int64(ca.cur.Start))
			if err := ca.seek(a, cd.cur.Start, c); err != nil {
				return err
			}
			cd.advance()
		} else {
			if !stack.empty() {
				// Lines 15-17: in-stack ancestors may join the following
				// descendants, so advance D one element at a time.
				stack.emitAll(mode, cd.cur, emit, c)
				cd.advance()
			} else {
				// Line 19: skip descendants before CurA with a range query;
				// the examined boundary descendant counts as scanned (same
				// accounting as the B+ algorithm's descendant skip).
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

// drainStack finishes a join after the ancestor input is exhausted:
// remaining descendants can only match already-stacked ancestors. The
// drain can still walk the whole remaining descendant list, so it keeps
// polling for cancellation on the same stride as the main loops.
func drainStack(mode Mode, cd *cursor, stack *ancStack, emit EmitFunc, c *metrics.Counters) error {
	var pl poller
	for cd.valid && !stack.empty() {
		if err := pl.interrupted(c); err != nil {
			return err
		}
		stack.popNonAncestors(cd.cur.Start)
		if stack.empty() {
			return nil
		}
		stack.emitAll(mode, cd.cur, emit, c)
		cd.advance()
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// startTimer times a join run, accumulating into c.Elapsed and emitting the
// run's duration as one EvJoinSpan event.
func startTimer(c *metrics.Counters) func() {
	if c == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		c.Elapsed += d
		c.Emit(obs.EvJoinSpan, int64(d))
	}
}

// Reference computes the join by brute force over in-memory slices — the
// oracle the tests compare every algorithm against.
func Reference(mode Mode, as, ds []xmldoc.Element) []Pair {
	var out []Pair
	for _, a := range as {
		for _, d := range ds {
			if a.Start < d.Start && d.Start < a.End && matches(mode, a, d) {
				out = append(out, Pair{A: a, D: d})
			}
		}
	}
	return out
}
