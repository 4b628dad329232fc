package elemlist

import (
	"math/rand"
	"testing"

	"xrtree/internal/metrics"
	"xrtree/internal/xmldoc"
)

func TestPeekMatchesNext(t *testing.T) {
	pool := newPool(t, 256, 8)
	es := nestedElements(120)
	l, err := Build(pool, es)
	if err != nil {
		t.Fatal(err)
	}
	it := l.Scan(nil)
	defer it.Close()
	for i := 0; ; i++ {
		p, pok := it.Peek()
		n, nok := it.Next()
		if pok != nok || (pok && p != n) {
			t.Fatalf("element %d: Peek (%v,%v) != Next (%v,%v)", i, p, pok, n, nok)
		}
		if !nok {
			break
		}
	}
	if _, ok := it.Peek(); ok {
		t.Error("Peek after end returned true")
	}
}

func TestPeekDoesNotCountScans(t *testing.T) {
	pool := newPool(t, 256, 8)
	l, err := Build(pool, nestedElements(50))
	if err != nil {
		t.Fatal(err)
	}
	st := &metrics.Counters{}
	it := l.Scan(st)
	defer it.Close()
	for i := 0; i < 10; i++ {
		it.Peek()
	}
	if st.ElementsScanned != 0 {
		t.Errorf("Peek counted %d scans", st.ElementsScanned)
	}
	it.Next()
	if st.ElementsScanned != 1 {
		t.Errorf("Next counted %d scans, want 1", st.ElementsScanned)
	}
}

func TestMarkRestore(t *testing.T) {
	pool := newPool(t, 256, 8)
	es := nestedElements(100)
	l, err := Build(pool, es)
	if err != nil {
		t.Fatal(err)
	}
	it := l.Scan(nil)
	defer it.Close()
	// Consume 30, mark, consume 40 more, restore, and re-read.
	for i := 0; i < 30; i++ {
		if _, ok := it.Next(); !ok {
			t.Fatal("unexpected end")
		}
	}
	mark := it.Mark()
	var firstRun []xmldoc.Element
	for i := 0; i < 40; i++ {
		e, ok := it.Next()
		if !ok {
			t.Fatal("unexpected end")
		}
		firstRun = append(firstRun, e)
	}
	if err := it.Restore(mark); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for i := 0; i < 40; i++ {
		e, ok := it.Next()
		if !ok || e != firstRun[i] {
			t.Fatalf("replay %d: %v,%v want %v", i, e, ok, firstRun[i])
		}
	}
	// Continue to the end: total must be 100.
	rest := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		rest++
	}
	if 30+40+rest != 100 {
		t.Errorf("total = %d, want 100", 30+40+rest)
	}
}

func TestMarkAtStartAndEnd(t *testing.T) {
	pool := newPool(t, 256, 8)
	es := nestedElements(40)
	l, err := Build(pool, es)
	if err != nil {
		t.Fatal(err)
	}
	it := l.Scan(nil)
	defer it.Close()
	start := it.Mark()
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	end := it.Mark()
	if err := it.Restore(start); err != nil {
		t.Fatal(err)
	}
	e, ok := it.Next()
	if !ok || e != es[0] {
		t.Fatalf("restore to start: %v,%v", e, ok)
	}
	if err := it.Restore(end); err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Next(); ok {
		t.Error("restore to end still yields elements")
	}
}

// TestStepMatchesNextPeek runs one random program of moves on two
// iterators over the same list. One advances as the join cursor does
// (StepInPage, else Next then Peek), the other with Next then Peek; both
// take the same Next, Peek, Mark and Restore moves in between. They must
// see the list's elements in order and charge the same counters, across
// page boundaries and after the end.
func TestStepMatchesNextPeek(t *testing.T) {
	es := nestedElements(300)
	l, err := Build(newPool(t, 256, 8), es)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var cs, cn metrics.Counters
		s, n := l.Scan(&cs), l.Scan(&cn)
		pos := 0 // index in es of the element Peek returns
		ms, mn, mpos := s.Mark(), n.Mark(), 0
		for op, ended := 0, 0; ended < 8; op++ {
			var gs, gn xmldoc.Element
			var oks, okn bool
			switch r := rng.Intn(20); {
			case r < 14 || op > 4*len(es):
				gs, oks = cursorStep(s)
				n.Next()
				gn, okn = n.Peek()
				pos = min(pos+1, len(es))
			case r < 16:
				gs, oks = s.Next()
				gn, okn = n.Next()
				if oks && gs != es[pos] {
					t.Fatalf("seed %d op %d: Next returned %v, want %v", seed, op, gs, es[pos])
				}
				pos = min(pos+1, len(es))
				gs, oks = s.Peek()
				gn, okn = n.Peek()
			case r < 18:
				ms, mn, mpos = s.Mark(), n.Mark(), pos
				continue
			default:
				if err := s.Restore(ms); err != nil {
					t.Fatal(err)
				}
				if err := n.Restore(mn); err != nil {
					t.Fatal(err)
				}
				pos = mpos
				gs, oks = s.Peek()
				gn, okn = n.Peek()
			}
			if gs != gn || oks != okn {
				t.Fatalf("seed %d op %d: cursor side (%v,%v), Next+Peek side (%v,%v)", seed, op, gs, oks, gn, okn)
			}
			if oks != (pos < len(es)) || oks && gs != es[pos] {
				t.Fatalf("seed %d op %d: Peek (%v,%v), want element %d of %d", seed, op, gs, oks, pos, len(es))
			}
			if !oks {
				ended++
			}
		}
		if cs != cn {
			t.Errorf("seed %d: counters differ:\ncursor    %+v\nNext+Peek %+v", seed, cs, cn)
		}
		if cs.LeafReads < int64(l.Pages()) {
			t.Errorf("seed %d: %d page reads for %d pages: the program must cross every page", seed, cs.LeafReads, l.Pages())
		}
		s.Close()
		n.Close()
	}
}

// TestStepAllocs pins the cursor step's allocation-free path, page hops
// included.
func TestStepAllocs(t *testing.T) {
	l, err := Build(newPool(t, 256, 8), nestedElements(300))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		it := l.Scan(nil)
		for _, ok := it.Peek(); ok; _, ok = cursorStep(it) {
		}
		it.Close()
	})
	// The iterator itself is the one allocation.
	if allocs > 1 {
		t.Errorf("a cursor-step scan allocates %.1f per run, want at most 1", allocs)
	}
}

// cursorStep advances it the way the join cursor does: StepInPage, else
// Next then Peek.
func cursorStep(it *Iterator) (xmldoc.Element, bool) {
	if page, off, ok := it.StepInPage(); ok {
		e, _ := xmldoc.DecodeElement(page[off:])
		e.DocID = it.DocID()
		return e, true
	}
	it.Next()
	return it.Peek()
}
