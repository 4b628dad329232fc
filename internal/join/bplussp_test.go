package join

import (
	"math/rand"
	"testing"

	"xrtree/internal/elemlist"
	"xrtree/internal/metrics"
	"xrtree/internal/xmldoc"
)

func TestBuildSiblingTable(t *testing.T) {
	// Structure: a(1,100){b(2,10){c(3,4)}, d(20,30)}, e(200,201)
	es := []xmldoc.Element{
		{DocID: 1, Start: 1, End: 100},
		{DocID: 1, Start: 2, End: 10},
		{DocID: 1, Start: 3, End: 4},
		{DocID: 1, Start: 20, End: 30},
		{DocID: 1, Start: 200, End: 201},
	}
	tab := BuildSiblingTable(es)
	want := []int32{4, 3, 3, 4, 5}
	for i := range want {
		if tab[i] != want[i] {
			t.Errorf("sib[%d] = %d, want %d", i, tab[i], want[i])
		}
	}
}

func TestBuildSiblingTableBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	as, _ := genDoc(rng, 200, 50, 10)
	tab := BuildSiblingTable(as)
	for i, e := range as {
		want := len(as)
		for j := i + 1; j < len(as); j++ {
			if as[j].Start > e.End {
				want = j
				break
			}
		}
		if int(tab[i]) != want {
			t.Fatalf("sib[%d] = %d, want %d", i, tab[i], want)
		}
	}
}

func TestBPlusSPMatchesOracle(t *testing.T) {
	for _, seed := range []int64{2, 9, 33} {
		for _, depth := range []int{1, 6, 12} {
			rng := rand.New(rand.NewSource(seed))
			as, ds := genDoc(rng, 150, 250, depth)
			pool := newPool(t, 512, 256)
			fa := buildFixture(t, pool, as)
			fd := buildFixture(t, pool, ds)
			sp, err := NewSiblingListSource(fa.list.L, as)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []Mode{AncestorDescendant, ParentChild} {
				var got []Pair
				if err := BPlusSPRuns(mode, sp, fd.bt, EachPair(Collect(&got)), nil); err != nil {
					t.Fatalf("BPlusSP: %v", err)
				}
				samePairs(t, "BPlusSP", got, Reference(mode, as, ds))
			}
		}
	}
}

// TestBPlusSPSimilarToBPlus reproduces the paper's omitted result: B+sp
// scans the same elements as B+ (identical skipping decisions) and only
// saves index-node probes.
func TestBPlusSPSimilarToBPlus(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	as, ds := genDoc(rng, 400, 700, 12)
	pool := newPool(t, 512, 512)
	fa := buildFixture(t, pool, as)
	fd := buildFixture(t, pool, ds)
	sp, err := NewSiblingListSource(fa.list.L, as)
	if err != nil {
		t.Fatal(err)
	}

	var cb, cs metrics.Counters
	if err := BPlus(AncestorDescendant, fa.bt, fd.bt, nil2(), &cb); err != nil {
		t.Fatal(err)
	}
	if err := BPlusSPRuns(AncestorDescendant, sp, fd.bt, EachPair(nil2()), &cs); err != nil {
		t.Fatal(err)
	}
	if cb.OutputPairs != cs.OutputPairs {
		t.Fatalf("pair counts differ: %d vs %d", cb.OutputPairs, cs.OutputPairs)
	}
	if cb.ElementsScanned != cs.ElementsScanned {
		t.Errorf("scans differ: B+ %d, B+sp %d (paper: similar behavior)",
			cb.ElementsScanned, cs.ElementsScanned)
	}
	if cs.IndexNodeReads > cb.IndexNodeReads {
		t.Errorf("B+sp probed %d index nodes, B+ %d; sibling pointers should save probes",
			cs.IndexNodeReads, cb.IndexNodeReads)
	}
}

func TestScanAtPositions(t *testing.T) {
	pool := newPool(t, 256, 64)
	var es []xmldoc.Element
	for i := 0; i < 100; i++ {
		es = append(es, xmldoc.Element{DocID: 1, Start: uint32(2*i + 1), End: uint32(2*i + 2)})
	}
	l, err := elemlist.Build(pool, es)
	if err != nil {
		t.Fatal(err)
	}
	for _, ord := range []int{0, 1, 15, 16, 31, 99} {
		it, err := l.ScanAt(ord, nil)
		if err != nil {
			t.Fatalf("ScanAt(%d): %v", ord, err)
		}
		e, ok := it.Next()
		it.Close()
		if !ok || e != es[ord] {
			t.Errorf("ScanAt(%d) = %v,%v want %v", ord, e, ok, es[ord])
		}
	}
	it, err := l.ScanAt(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Next(); ok {
		t.Error("ScanAt(len) yielded an element")
	}
	it.Close()
}
