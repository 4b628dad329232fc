package join

import (
	"math/rand"
	"sort"
	"testing"

	"xrtree/internal/btree"
	"xrtree/internal/bufferpool"
	"xrtree/internal/core"
	"xrtree/internal/elemlist"
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// fixture builds all three access paths over one element set.
type fixture struct {
	list ListSource
	bt   BTreeSource
	xr   XRTreeSource
}

func newPool(t *testing.T, pageSize, frames int) *bufferpool.Pool {
	t.Helper()
	f := pagefile.NewMem(pagefile.Options{PageSize: pageSize})
	t.Cleanup(func() { f.Close() })
	p, err := bufferpool.New(f, frames)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func buildFixture(t *testing.T, pool *bufferpool.Pool, es []xmldoc.Element) fixture {
	t.Helper()
	l, err := elemlist.Build(pool, es)
	if err != nil {
		t.Fatalf("elemlist.Build: %v", err)
	}
	bt, err := btree.New(pool, es[0].DocID)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.BulkLoad(es, 1.0); err != nil {
		t.Fatalf("btree.BulkLoad: %v", err)
	}
	xr, err := core.New(pool, es[0].DocID, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := xr.BulkLoad(es, 1.0); err != nil {
		t.Fatalf("core.BulkLoad: %v", err)
	}
	return fixture{list: ListSource{L: l}, bt: BTreeSource{T: bt}, xr: XRTreeSource{T: xr}}
}

// genDoc builds a random document and returns two tag sets (potential
// ancestors "a" and descendants "d") with controllable nesting.
func genDoc(rng *rand.Rand, nA, nD, maxDepth int) (as, ds []xmldoc.Element) {
	b := xmldoc.NewBuilder(1, 1)
	countA, countD := 0, 0
	var build func(depth int)
	build = func(depth int) {
		if countA >= nA && countD >= nD {
			return
		}
		pickA := rng.Intn(2) == 0 && countA < nA
		if pickA {
			countA++
			b.Open("a")
		} else {
			countD++
			b.Open("d")
		}
		kids := rng.Intn(4)
		if depth >= maxDepth {
			kids = 0
		}
		for i := 0; i < kids && (countA < nA || countD < nD); i++ {
			build(depth + 1)
		}
		b.Close()
	}
	b.Open("root")
	for countA < nA || countD < nD {
		build(1)
	}
	b.Close()
	doc, err := b.Document()
	if err != nil {
		panic(err)
	}
	return doc.ElementsByTag("a"), doc.ElementsByTag("d")
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A.Start != ps[j].A.Start {
			return ps[i].A.Start < ps[j].A.Start
		}
		return ps[i].D.Start < ps[j].D.Start
	})
}

func samePairs(t *testing.T, what string, got, want []Pair) {
	t.Helper()
	sortPairs(got)
	sortPairs(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].A.Start != want[i].A.Start || got[i].D.Start != want[i].D.Start {
			t.Fatalf("%s: pair %d = (%v,%v), want (%v,%v)",
				what, i, got[i].A, got[i].D, want[i].A, want[i].D)
		}
	}
}

// runAll executes all four algorithms and checks them against the oracle.
func runAll(t *testing.T, mode Mode, fa, fd fixture, as, ds []xmldoc.Element) {
	t.Helper()
	want := Reference(mode, as, ds)

	var got []Pair
	var c metrics.Counters
	if err := StackTreeDesc(mode, fa.list, fd.list, Collect(&got), &c); err != nil {
		t.Fatalf("StackTreeDesc: %v", err)
	}
	samePairs(t, "StackTreeDesc", got, want)
	if c.OutputPairs != int64(len(want)) {
		t.Errorf("StackTreeDesc OutputPairs = %d, want %d", c.OutputPairs, len(want))
	}

	got = nil
	c.Reset()
	if err := MPMGJNRuns(mode, fa.list, fd.list, EachPair(Collect(&got)), &c); err != nil {
		t.Fatalf("MPMGJN: %v", err)
	}
	samePairs(t, "MPMGJN", got, want)

	got = nil
	c.Reset()
	if err := BPlus(mode, fa.bt, fd.bt, Collect(&got), &c); err != nil {
		t.Fatalf("BPlus: %v", err)
	}
	samePairs(t, "BPlus", got, want)

	got = nil
	c.Reset()
	if err := XRStack(mode, fa.xr, fd.xr, Collect(&got), &c); err != nil {
		t.Fatalf("XRStack: %v", err)
	}
	samePairs(t, "XRStack", got, want)
}

func TestAllAlgorithmsMatchOracleRandom(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, depth := range []int{2, 6, 14} {
			rng := rand.New(rand.NewSource(seed))
			as, ds := genDoc(rng, 120, 200, depth)
			if len(as) == 0 || len(ds) == 0 {
				t.Fatalf("seed %d depth %d: empty sets", seed, depth)
			}
			pool := newPool(t, 512, 256)
			fa := buildFixture(t, pool, as)
			fd := buildFixture(t, pool, ds)
			runAll(t, AncestorDescendant, fa, fd, as, ds)
			runAll(t, ParentChild, fa, fd, as, ds)
		}
	}
}

func TestSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	as, _ := genDoc(rng, 150, 10, 10)
	pool := newPool(t, 512, 256)
	fa := buildFixture(t, pool, as)
	runAll(t, AncestorDescendant, fa, fa, as, as)
}

func TestDisjointSets(t *testing.T) {
	// Ancestors and descendants in disjoint position ranges: zero results,
	// and the indexed algorithms should scan almost nothing.
	var as, ds []xmldoc.Element
	for i := 0; i < 100; i++ {
		as = append(as, xmldoc.Element{DocID: 1, Start: uint32(2*i + 1), End: uint32(2*i + 2), Level: 2})
	}
	for i := 0; i < 100; i++ {
		ds = append(ds, xmldoc.Element{DocID: 1, Start: uint32(1000 + 2*i), End: uint32(1000 + 2*i + 1), Level: 3})
	}
	pool := newPool(t, 512, 256)
	fa := buildFixture(t, pool, as)
	fd := buildFixture(t, pool, ds)
	runAll(t, AncestorDescendant, fa, fd, as, ds)

	var got []Pair
	var c metrics.Counters
	if err := XRStack(AncestorDescendant, fa.xr, fd.xr, Collect(&got), &c); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("disjoint join produced %d pairs", len(got))
	}
	if c.ElementsScanned > 20 {
		t.Errorf("XRStack scanned %d elements on disjoint sets, want few", c.ElementsScanned)
	}
}

func TestSkippingCounts(t *testing.T) {
	// The paper's Table 2 shape on flat (non-nested) ancestors: a long run
	// of sibling ancestors of which only 5% contain descendants, with every
	// descendant joining. B+ cannot skip flat ancestors (Figure 7(b)) and
	// degenerates toward the sequential scan, while XR-stack jumps straight
	// to each descendant's ancestors.
	var as, ds []xmldoc.Element
	pos := uint32(1)
	for i := 0; i < 2000; i++ {
		start := pos
		if i%20 == 0 {
			// A joining ancestor containing 5 descendants.
			pos++
			for k := 0; k < 5; k++ {
				ds = append(ds, xmldoc.Element{DocID: 1, Start: pos, End: pos + 1, Level: 3})
				pos += 2
			}
		}
		pos++
		as = append(as, xmldoc.Element{DocID: 1, Start: start, End: pos, Level: 2})
		pos++
	}
	pool := newPool(t, 512, 512)
	fa := buildFixture(t, pool, as)
	fd := buildFixture(t, pool, ds)

	count := func(run func(c *metrics.Counters) error) int64 {
		var c metrics.Counters
		if err := run(&c); err != nil {
			t.Fatal(err)
		}
		return c.ElementsScanned
	}
	nidx := count(func(c *metrics.Counters) error {
		return StackTreeDesc(AncestorDescendant, fa.list, fd.list, func(a, d xmldoc.Element) {}, c)
	})
	bp := count(func(c *metrics.Counters) error {
		return BPlus(AncestorDescendant, fa.bt, fd.bt, func(a, d xmldoc.Element) {}, c)
	})
	xr := count(func(c *metrics.Counters) error {
		return XRStack(AncestorDescendant, fa.xr, fd.xr, func(a, d xmldoc.Element) {}, c)
	})
	if xr >= bp {
		t.Errorf("XRStack scanned %d ≥ BPlus %d on flat ancestors", xr, bp)
	}
	if bp > nidx+10 {
		t.Errorf("BPlus scanned %d > no-index %d", bp, nidx)
	}
	t.Logf("scanned: no-index=%d B+=%d XR=%d (pairs exist: %d)", nidx, bp, xr,
		len(Reference(AncestorDescendant, as, ds)))
}

func TestEmptyAndSingleInputs(t *testing.T) {
	pool := newPool(t, 512, 128)
	one := []xmldoc.Element{{DocID: 1, Start: 10, End: 100, Level: 1}}
	inside := []xmldoc.Element{{DocID: 1, Start: 20, End: 30, Level: 2}}
	fa := buildFixture(t, pool, one)
	fd := buildFixture(t, pool, inside)
	runAll(t, AncestorDescendant, fa, fd, one, inside)

	var got []Pair
	if err := XRStack(AncestorDescendant, fa.xr, fd.xr, Collect(&got), nil); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d pairs, want 1", len(got))
	}
}

func TestParentChildFiltering(t *testing.T) {
	// Three nested levels: grandparent-grandchild pairs appear in AD mode
	// but not in PC mode.
	es := []xmldoc.Element{
		{DocID: 1, Start: 1, End: 100, Level: 1},
		{DocID: 1, Start: 10, End: 50, Level: 2},
		{DocID: 1, Start: 20, End: 30, Level: 3},
	}
	pool := newPool(t, 512, 128)
	f := buildFixture(t, pool, es)

	var ad, pc []Pair
	if err := XRStack(AncestorDescendant, f.xr, f.xr, Collect(&ad), nil); err != nil {
		t.Fatal(err)
	}
	if err := XRStack(ParentChild, f.xr, f.xr, Collect(&pc), nil); err != nil {
		t.Fatal(err)
	}
	if len(ad) != 3 {
		t.Errorf("AD pairs = %d, want 3", len(ad))
	}
	if len(pc) != 2 {
		t.Errorf("PC pairs = %d, want 2", len(pc))
	}
}

func TestMPMGJNRescansMoreThanStack(t *testing.T) {
	// Heavily nested ancestors force MPMGJN to rescan descendants, so it
	// must scan strictly more elements than the stack-based merge.
	var as, ds []xmldoc.Element
	// 50 nested ancestors all containing the same 100 descendants.
	for i := 0; i < 50; i++ {
		as = append(as, xmldoc.Element{
			DocID: 1, Start: uint32(i + 1), End: uint32(10000 - i), Level: uint16(i + 1),
		})
	}
	for i := 0; i < 100; i++ {
		ds = append(ds, xmldoc.Element{
			DocID: 1, Start: uint32(100 + 2*i), End: uint32(100 + 2*i + 1), Level: 60,
		})
	}
	pool := newPool(t, 512, 256)
	fa := buildFixture(t, pool, as)
	fd := buildFixture(t, pool, ds)

	var cStack, cMPMG metrics.Counters
	want := Reference(AncestorDescendant, as, ds)
	var got []Pair
	if err := StackTreeDesc(AncestorDescendant, fa.list, fd.list, Collect(&got), &cStack); err != nil {
		t.Fatal(err)
	}
	samePairs(t, "StackTreeDesc", got, want)
	got = nil
	if err := MPMGJNRuns(AncestorDescendant, fa.list, fd.list, EachPair(Collect(&got)), &cMPMG); err != nil {
		t.Fatal(err)
	}
	samePairs(t, "MPMGJN", got, want)
	if cMPMG.ElementsScanned <= cStack.ElementsScanned {
		t.Errorf("MPMGJN scanned %d, stack scanned %d; expected rescanning overhead",
			cMPMG.ElementsScanned, cStack.ElementsScanned)
	}
}

func TestNoPinLeaks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	as, ds := genDoc(rng, 100, 150, 8)
	pool := newPool(t, 512, 256)
	fa := buildFixture(t, pool, as)
	fd := buildFixture(t, pool, ds)
	emit := func(a, d xmldoc.Element) {}
	if err := StackTreeDesc(AncestorDescendant, fa.list, fd.list, emit, nil); err != nil {
		t.Fatal(err)
	}
	if err := MPMGJNRuns(AncestorDescendant, fa.list, fd.list, EachPair(emit), nil); err != nil {
		t.Fatal(err)
	}
	if err := BPlus(AncestorDescendant, fa.bt, fd.bt, emit, nil); err != nil {
		t.Fatal(err)
	}
	if err := XRStack(AncestorDescendant, fa.xr, fd.xr, emit, nil); err != nil {
		t.Fatal(err)
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Errorf("leaked %d pins", n)
	}
}
