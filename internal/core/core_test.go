package core

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"xrtree/internal/bufferpool"
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

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

// genNested produces n strictly nested random elements (a random forest)
// with controllable nesting depth. Returned sorted by start.
func genNested(rng *rand.Rand, n, maxDepth int) []xmldoc.Element {
	var out []xmldoc.Element
	pos := uint32(0)
	next := func() uint32 { pos += uint32(rng.Intn(3) + 1); return pos }
	var build func(depth int)
	ref := uint32(0)
	build = func(depth int) {
		if len(out) >= n {
			return
		}
		start := next()
		level := uint16(depth + 1)
		idx := len(out)
		out = append(out, xmldoc.Element{DocID: 1, Level: level, Ref: ref})
		ref++
		kids := rng.Intn(4)
		if depth >= maxDepth {
			kids = 0
		}
		for i := 0; i < kids && len(out) < n; i++ {
			build(depth + 1)
		}
		out[idx].Start = start
		out[idx].End = next()
	}
	for len(out) < n {
		build(0)
	}
	xmldoc.SortByStart(out)
	return out
}

// oracle answers ancestor/descendant queries by brute force.
type oracle struct {
	els map[uint32]xmldoc.Element // by start
}

func newOracle() *oracle { return &oracle{els: make(map[uint32]xmldoc.Element)} }

func (o *oracle) insert(e xmldoc.Element) { o.els[e.Start] = e }
func (o *oracle) remove(start uint32)     { delete(o.els, start) }

func (o *oracle) ancestors(sd uint32, minStart uint32) []xmldoc.Element {
	var out []xmldoc.Element
	for _, e := range o.els {
		if e.Start < sd && sd < e.End && e.Start > minStart {
			out = append(out, e)
		}
	}
	xmldoc.SortByStart(out)
	return out
}

func (o *oracle) descendants(sa, ea uint32) []xmldoc.Element {
	var out []xmldoc.Element
	for _, e := range o.els {
		if sa < e.Start && e.Start < ea {
			out = append(out, e)
		}
	}
	xmldoc.SortByStart(out)
	return out
}

func (o *oracle) sorted() []xmldoc.Element {
	out := make([]xmldoc.Element, 0, len(o.els))
	for _, e := range o.els {
		out = append(out, e)
	}
	xmldoc.SortByStart(out)
	return out
}

func sameElements(t *testing.T, what string, got, want []xmldoc.Element) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d elements, want %d\ngot:  %v\nwant: %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Start != want[i].Start || got[i].End != want[i].End {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func buildTree(t *testing.T, pool *bufferpool.Pool, es []xmldoc.Element, opts Options) *Tree {
	t.Helper()
	tr, err := New(pool, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range es {
		if err := tr.Insert(e); err != nil {
			t.Fatalf("Insert(%v): %v", e, err)
		}
	}
	return tr
}

func TestInsertPaperFigure3(t *testing.T) {
	// The emp element set of the paper's Figure 1.
	emps := []xmldoc.Element{
		{DocID: 1, Start: 2, End: 15}, {DocID: 1, Start: 8, End: 12},
		{DocID: 1, Start: 10, End: 11}, {DocID: 1, Start: 20, End: 75},
		{DocID: 1, Start: 22, End: 35}, {DocID: 1, Start: 25, End: 30},
		{DocID: 1, Start: 40, End: 65}, {DocID: 1, Start: 45, End: 60},
		{DocID: 1, Start: 46, End: 47}, {DocID: 1, Start: 50, End: 55},
		{DocID: 1, Start: 80, End: 91}, {DocID: 1, Start: 85, End: 90},
	}
	pool := newPool(t, 256, 64)
	tr := buildTree(t, pool, emps, Options{})
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if tr.Len() != len(emps) {
		t.Errorf("Len = %d, want %d", tr.Len(), len(emps))
	}
	// FindAncestors of position 50 must yield the chain 20,75 / 40,65 / 45,60.
	anc, err := tr.FindAncestors(50, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []xmldoc.Element{{Start: 20, End: 75}, {Start: 40, End: 65}, {Start: 45, End: 60}}
	sameElements(t, "FindAncestors(50)", anc, want)

	// FindDescendants of (20, 75).
	des, err := tr.FindDescendants(20, 75, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantD := []xmldoc.Element{
		{Start: 22, End: 35}, {Start: 25, End: 30}, {Start: 40, End: 65},
		{Start: 45, End: 60}, {Start: 46, End: 47}, {Start: 50, End: 55},
	}
	sameElements(t, "FindDescendants(20,75)", des, wantD)
}

func TestInsertRandomizedInvariants(t *testing.T) {
	for _, pageSize := range []int{256, 512} {
		rng := rand.New(rand.NewSource(int64(pageSize) * 7))
		es := genNested(rng, 600, 12)
		pool := newPool(t, pageSize, 128)
		tr, err := New(pool, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(len(es))
		for i, pi := range perm {
			if err := tr.Insert(es[pi]); err != nil {
				t.Fatalf("pageSize %d: Insert %d (%v): %v", pageSize, i, es[pi], err)
			}
			if i%50 == 0 || i == len(perm)-1 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("pageSize %d: after insert %d: %v", pageSize, i, err)
				}
			}
		}
		if pool.PinnedCount() != 0 {
			t.Errorf("leaked pins: %d", pool.PinnedCount())
		}
	}
}

func TestFindAncestorsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	es := genNested(rng, 800, 15)
	pool := newPool(t, 256, 128)
	tr := buildTree(t, pool, es, Options{})
	o := newOracle()
	for _, e := range es {
		o.insert(e)
	}
	maxPos := es[len(es)-1].End + 5
	for trial := 0; trial < 300; trial++ {
		sd := uint32(rng.Intn(int(maxPos)) + 1)
		got, err := tr.FindAncestors(sd, 0, nil)
		if err != nil {
			t.Fatalf("FindAncestors(%d): %v", sd, err)
		}
		sameElements(t, "FindAncestors", got, o.ancestors(sd, 0))
	}
	// With minStart filtering.
	for trial := 0; trial < 100; trial++ {
		sd := uint32(rng.Intn(int(maxPos)) + 1)
		min := uint32(rng.Intn(int(sd) + 1))
		got, err := tr.FindAncestors(sd, min, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameElements(t, "FindAncestors(minStart)", got, o.ancestors(sd, min))
	}
}

func TestFindDescendantsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	es := genNested(rng, 700, 10)
	pool := newPool(t, 256, 128)
	tr := buildTree(t, pool, es, Options{})
	o := newOracle()
	for _, e := range es {
		o.insert(e)
	}
	for trial := 0; trial < 200; trial++ {
		e := es[rng.Intn(len(es))]
		got, err := tr.FindDescendants(e.Start, e.End, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameElements(t, "FindDescendants", got, o.descendants(e.Start, e.End))
	}
}

func TestDeleteRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	es := genNested(rng, 500, 12)
	pool := newPool(t, 256, 128)
	tr := buildTree(t, pool, es, Options{})
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("after build: %v", err)
	}
	perm := rng.Perm(len(es))
	for i, pi := range perm {
		if err := tr.Delete(es[pi].Start); err != nil {
			t.Fatalf("Delete %d (%v): %v", i, es[pi], err)
		}
		if i%25 == 0 || i == len(perm)-1 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after delete %d (%v): %v", i, es[pi], err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d after deleting all", tr.Len())
	}
	if se, sp := tr.StabStats(); se != 0 || sp != 0 {
		t.Errorf("stab stats after deleting all: %d entries, %d pages", se, sp)
	}
	if pool.PinnedCount() != 0 {
		t.Errorf("leaked pins: %d", pool.PinnedCount())
	}
}

func TestMixedOpsAgainstOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		universe := genNested(rng, 400, 14)
		pool := newPool(t, 256, 128)
		tr, err := New(pool, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle()
		present := make(map[int]bool)
		maxPos := universe[len(universe)-1].End + 5

		for op := 0; op < 1200; op++ {
			i := rng.Intn(len(universe))
			e := universe[i]
			if !present[i] && rng.Intn(5) != 0 {
				if err := tr.Insert(e); err != nil {
					t.Fatalf("seed %d op %d: Insert(%v): %v", seed, op, e, err)
				}
				o.insert(e)
				present[i] = true
			} else if present[i] {
				if err := tr.Delete(e.Start); err != nil {
					t.Fatalf("seed %d op %d: Delete(%v): %v", seed, op, e, err)
				}
				o.remove(e.Start)
				present[i] = false
			}
			if op%100 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				sd := uint32(rng.Intn(int(maxPos)) + 1)
				got, err := tr.FindAncestors(sd, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameElements(t, "FindAncestors", got, o.ancestors(sd, 0))
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("seed %d final: %v", seed, err)
		}
		// Full scan must match the oracle.
		it, err := tr.Scan(nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []xmldoc.Element
		for {
			e, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, e)
		}
		it.Close()
		sameElements(t, "final scan", got, o.sorted())
	}
}

func TestBulkLoadMatchesInsertBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	es := genNested(rng, 900, 12)
	pool := newPool(t, 512, 256)

	bulk, err := New(pool, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BulkLoad(es, 1.0); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatalf("bulk invariants: %v", err)
	}
	if bulk.Len() != len(es) {
		t.Errorf("Len = %d, want %d", bulk.Len(), len(es))
	}

	o := newOracle()
	for _, e := range es {
		o.insert(e)
	}
	maxPos := es[len(es)-1].End + 5
	for trial := 0; trial < 200; trial++ {
		sd := uint32(rng.Intn(int(maxPos)) + 1)
		got, err := bulk.FindAncestors(sd, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameElements(t, "bulk FindAncestors", got, o.ancestors(sd, 0))
	}

	// A bulk-loaded tree must accept further updates.
	extra := xmldoc.Element{DocID: 1, Start: maxPos + 2, End: maxPos + 3}
	if err := bulk.Insert(extra); err != nil {
		t.Fatalf("Insert after BulkLoad: %v", err)
	}
	if err := bulk.Delete(es[0].Start); err != nil {
		t.Fatalf("Delete after BulkLoad: %v", err)
	}
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatalf("after updates: %v", err)
	}
}

func TestBulkLoadErrors(t *testing.T) {
	pool := newPool(t, 256, 64)
	tr, _ := New(pool, 1, Options{})
	unsorted := []xmldoc.Element{{DocID: 1, Start: 5, End: 6}, {DocID: 1, Start: 1, End: 2}}
	if err := tr.BulkLoad(unsorted, 1.0); err == nil {
		t.Error("BulkLoad accepted unsorted input")
	}
	tr2, _ := New(pool, 1, Options{})
	tr2.Insert(xmldoc.Element{DocID: 1, Start: 1, End: 2})
	if err := tr2.BulkLoad([]xmldoc.Element{{DocID: 1, Start: 5, End: 6}}, 1.0); err == nil {
		t.Error("BulkLoad into non-empty tree accepted")
	}
	// Every element passes Insert's checks, the first one included.
	for name, es := range map[string][]xmldoc.Element{
		"foreign first element": {{DocID: 2, Start: 1, End: 2}, {DocID: 1, Start: 3, End: 4}},
		"foreign only element":  {{DocID: 2, Start: 1, End: 2}},
		"degenerate region":     {{DocID: 1, Start: 1, End: 2}, {DocID: 1, Start: 3, End: 3}},
		"inverted region":       {{DocID: 1, Start: 5, End: 4}},
	} {
		tr, _ := New(pool, 1, Options{})
		if err := tr.BulkLoad(es, 1.0); err == nil {
			t.Errorf("%s: BulkLoad accepted it", name)
		}
	}
}

func TestDuplicateAndErrors(t *testing.T) {
	pool := newPool(t, 256, 64)
	tr, _ := New(pool, 1, Options{})
	e := xmldoc.Element{DocID: 1, Start: 5, End: 10}
	if err := tr.Insert(e); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(e); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate insert err = %v", err)
	}
	if err := tr.Insert(xmldoc.Element{DocID: 1, Start: 7, End: 7}); err == nil {
		t.Error("degenerate region accepted")
	}
	if err := tr.Insert(xmldoc.Element{DocID: 9, Start: 20, End: 21}); err == nil {
		t.Error("cross-DocID insert accepted")
	}
	if err := tr.Delete(999); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete(missing) err = %v", err)
	}
	if _, err := tr.Lookup(999, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("Lookup(missing) err = %v", err)
	}
	got, err := tr.Lookup(5, nil)
	if err != nil || got.End != 10 {
		t.Errorf("Lookup(5) = %v, %v", got, err)
	}
}

// TestRejectedDuplicateInsertLeavesNoTrace inserts a duplicate start whose
// wider region a high internal key stabs, so the descent homes it (I1)
// before the leaf rejects it. The rejected insert must leave the stab
// lists, the ancestor answers, the stab counters and the count as they
// were.
func TestRejectedDuplicateInsertLeavesNoTrace(t *testing.T) {
	pool := newPool(t, 256, 64)
	es := genNested(rand.New(rand.NewSource(3)), 2000, 6)
	tr, err := New(pool, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(es, 1); err != nil {
		t.Fatal(err)
	}
	last := es[len(es)-1]
	ancBefore, err := tr.FindAncestors(last.Start, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	entries, pages := tr.StabStats()

	dup := xmldoc.Element{DocID: 1, Start: es[1000].Start, End: last.End + 100}
	if err := tr.Insert(dup); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("Insert(%v) = %v, want ErrDuplicate", dup, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after the rejected insert: %v", err)
	}
	anc, err := tr.FindAncestors(last.Start, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameElements(t, "FindAncestors after the rejected insert", anc, ancBefore)
	if e2, p2 := tr.StabStats(); e2 != entries || p2 != pages {
		t.Errorf("StabStats = (%d, %d), want (%d, %d)", e2, p2, entries, pages)
	}
	if tr.Len() != len(es) {
		t.Errorf("Len = %d, want %d", tr.Len(), len(es))
	}
}

func TestOpenReattaches(t *testing.T) {
	pool := newPool(t, 256, 64)
	rng := rand.New(rand.NewSource(31))
	es := genNested(rng, 200, 8)
	tr := buildTree(t, pool, es, Options{})
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(pool, tr.Meta(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if tr2.Len() != len(es) || tr2.Height() != tr.Height() {
		t.Errorf("reopened: len=%d h=%d, want %d/%d", tr2.Len(), tr2.Height(), len(es), tr.Height())
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatalf("reopened invariants: %v", err)
	}
	se1, sp1 := tr.StabStats()
	se2, sp2 := tr2.StabStats()
	if se1 != se2 || sp1 != sp2 {
		t.Errorf("stab stats lost on reopen: (%d,%d) vs (%d,%d)", se1, sp1, se2, sp2)
	}
}

func TestSeekGEAndIterator(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	es := genNested(rng, 300, 8)
	pool := newPool(t, 256, 64)
	tr := buildTree(t, pool, es, Options{})
	for trial := 0; trial < 50; trial++ {
		k := uint32(rng.Intn(int(es[len(es)-1].Start) + 10))
		it, err := tr.SeekGE(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantIdx := sort.Search(len(es), func(i int) bool { return es[i].Start >= k })
		e, ok := it.Next()
		if wantIdx == len(es) {
			if ok {
				t.Fatalf("SeekGE(%d) returned %v, want end", k, e)
			}
		} else if !ok || e.Start != es[wantIdx].Start {
			t.Fatalf("SeekGE(%d) = %v,%v want %v", k, e, ok, es[wantIdx])
		}
		it.Close()
	}
	if pool.PinnedCount() != 0 {
		t.Errorf("leaked pins: %d", pool.PinnedCount())
	}
}

func TestFindParentAndChildren(t *testing.T) {
	// A small fixed tree: root (1,100) L1; children (2,40) and (50,90) L2;
	// grandchildren (5,10),(12,30) under (2,40) L3; (55,60) under (50,90).
	es := []xmldoc.Element{
		{DocID: 1, Start: 1, End: 100, Level: 1},
		{DocID: 1, Start: 2, End: 40, Level: 2},
		{DocID: 1, Start: 5, End: 10, Level: 3},
		{DocID: 1, Start: 12, End: 30, Level: 3},
		{DocID: 1, Start: 50, End: 90, Level: 2},
		{DocID: 1, Start: 55, End: 60, Level: 3},
	}
	pool := newPool(t, 256, 64)
	tr := buildTree(t, pool, es, Options{})

	p, ok, err := tr.FindParent(5, 3, nil)
	if err != nil || !ok || p.Start != 2 {
		t.Errorf("FindParent(5) = %v,%v,%v want (2,40)", p, ok, err)
	}
	p, ok, err = tr.FindParent(2, 2, nil)
	if err != nil || !ok || p.Start != 1 {
		t.Errorf("FindParent(2) = %v,%v,%v want (1,100)", p, ok, err)
	}
	_, ok, err = tr.FindParent(1, 1, nil)
	if err != nil || ok {
		t.Errorf("FindParent(root) found a parent")
	}

	kids, err := tr.FindChildren(1, 100, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameElements(t, "FindChildren(root)", kids,
		[]xmldoc.Element{{Start: 2, End: 40}, {Start: 50, End: 90}})
	kids, err = tr.FindChildren(2, 40, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameElements(t, "FindChildren(2,40)", kids,
		[]xmldoc.Element{{Start: 5, End: 10}, {Start: 12, End: 30}})
}

func TestCountersAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	es := genNested(rng, 500, 10)
	pool := newPool(t, 256, 128)
	tr := buildTree(t, pool, es, Options{})
	var c metrics.Counters
	if _, err := tr.FindAncestors(es[len(es)/2].Start+1, 0, &c); err != nil {
		t.Fatal(err)
	}
	if c.IndexNodeReads == 0 || c.LeafReads == 0 {
		t.Errorf("FindAncestors counters: %+v", c)
	}
	if c.ElementsScanned == 0 {
		t.Error("FindAncestors scanned no elements")
	}
}

func TestStabStatsGrowWithNesting(t *testing.T) {
	// Deeply nested data must place many elements in stab lists; flat data
	// (siblings only) should place almost none (§3.3).
	pool := newPool(t, 256, 256)
	flat := make([]xmldoc.Element, 400)
	for i := range flat {
		flat[i] = xmldoc.Element{DocID: 1, Start: uint32(3*i + 1), End: uint32(3*i + 2), Level: 1}
	}
	trFlat := buildTree(t, pool, flat, Options{})
	flatEntries, _ := trFlat.StabStats()
	if flatEntries != 0 {
		t.Errorf("flat data has %d stab entries, want 0", flatEntries)
	}

	rng := rand.New(rand.NewSource(43))
	nested := genNested(rng, 400, 20)
	trNested := buildTree(t, newPool(t, 256, 256), nested, Options{})
	nestedEntries, nestedPages := trNested.StabStats()
	if nestedEntries == 0 || nestedPages == 0 {
		t.Errorf("nested data has %d stab entries on %d pages, want > 0", nestedEntries, nestedPages)
	}
}

func TestKeyChoiceAblation(t *testing.T) {
	// With the §3.2 separator optimization off, separators coincide with
	// element starts more often, so at least as many elements are stabbed.
	rng := rand.New(rand.NewSource(47))
	es := genNested(rng, 600, 6)
	onTree := buildTree(t, newPool(t, 256, 256), es, Options{})
	offTree := buildTree(t, newPool(t, 256, 256), es, Options{DisableKeyChoice: true})
	onEntries, _ := onTree.StabStats()
	offEntries, _ := offTree.StabStats()
	if onEntries > offEntries {
		t.Errorf("key choice increased stab entries: on=%d off=%d", onEntries, offEntries)
	}
	if err := offTree.CheckInvariants(); err != nil {
		t.Fatalf("DisableKeyChoice invariants: %v", err)
	}
}

func TestAscendingAndDescendingInserts(t *testing.T) {
	for name, reverse := range map[string]bool{"ascending": false, "descending": true} {
		rng := rand.New(rand.NewSource(53))
		es := genNested(rng, 400, 10)
		order := make([]xmldoc.Element, len(es))
		copy(order, es)
		if reverse {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		pool := newPool(t, 256, 128)
		tr, _ := New(pool, 1, Options{})
		for i, e := range order {
			if err := tr.Insert(e); err != nil {
				t.Fatalf("%s insert %d: %v", name, i, err)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestBulkLoadPartialFill(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	es := genNested(rng, 600, 10)
	for _, fill := range []float64{0.5, 0.7, 1.0} {
		pool := newPool(t, 512, 256)
		tr, err := New(pool, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(es, fill); err != nil {
			t.Fatalf("fill %.1f: %v", fill, err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("fill %.1f invariants: %v", fill, err)
		}
		o := newOracle()
		for _, e := range es {
			o.insert(e)
		}
		for i := 0; i < 50; i++ {
			sd := es[rng.Intn(len(es))].Start + 1
			got, err := tr.FindAncestors(sd, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(o.ancestors(sd, 0)) {
				t.Fatalf("fill %.1f: FindAncestors(%d) mismatch", fill, sd)
			}
		}
	}
}
