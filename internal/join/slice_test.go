package join

import (
	"math/rand"
	"testing"

	"xrtree/internal/metrics"
	"xrtree/internal/xmldoc"
)

// sliceFixture is a small nested slice: 1 contains 2, which contains 5
// and 12; 50 is a sibling of 2.
var sliceFixture = []xmldoc.Element{
	{DocID: 1, Start: 1, End: 100},
	{DocID: 1, Start: 2, End: 40},
	{DocID: 1, Start: 5, End: 10},
	{DocID: 1, Start: 12, End: 30},
	{DocID: 1, Start: 50, End: 90},
}

func sameStarts(t *testing.T, what string, got []xmldoc.Element, want ...uint32) {
	t.Helper()
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = got[i].Start == want[i]
	}
	if !ok {
		t.Errorf("%s = %v, want starts %v", what, got, want)
	}
}

func TestSliceSourceFindAncestors(t *testing.T) {
	s := SliceSource{Els: sliceFixture}
	got, err := s.AppendAncestors(nil, 20, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameStarts(t, "AppendAncestors(20)", got, 1, 2, 12)

	got, err = s.AppendAncestors(nil, 20, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameStarts(t, "AppendAncestors(20, min=2)", got, 12)
}

// TestSliceCursorMatchesNextPeek runs one random program of moves on two
// cursors over the same slice: one bound to the slice iterator, stepping
// and seeking in place, the other to a plainIter, stepping with Next then
// Peek and seeking through SliceSource.SeekGE. They must see the same
// elements and charge the same counters, past the end too.
func TestSliceCursorMatchesNextPeek(t *testing.T) {
	els := make([]xmldoc.Element, 400)
	for i := range els {
		els[i] = xmldoc.Element{DocID: 1, Start: uint32(3*i + 1), End: uint32(3*i + 2), Level: 1}
	}
	src := SliceSource{Els: els}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var cs, cn metrics.Counters
		si, _ := src.Scan(&cs)
		s := newCursor(si)
		n := newCursor(plainIter{&sliceIterator{els: els, c: &cn}})
		if s.sl == nil || n.sl != nil {
			t.Fatal("the slice iterator is not bound in place, or the plainIter is")
		}
		for op, ended := 0, 0; ended < 8; op++ {
			if r := rng.Intn(20); r < 16 || op > 4*len(els) {
				s.advance()
				n.advance()
			} else {
				k := uint32(rng.Intn(3*len(els) + 10))
				if err := s.seek(src, k, &cs); err != nil {
					t.Fatal(err)
				}
				if err := n.seek(plainSource{src}, k, &cn); err != nil {
					t.Fatal(err)
				}
			}
			if s.cur != n.cur || s.valid != n.valid {
				t.Fatalf("seed %d op %d: in place (%v,%v), Next+Peek (%v,%v)", seed, op, s.cur, s.valid, n.cur, n.valid)
			}
			if !s.valid {
				ended++
			}
		}
		if cs != cn || cs.FingerHits+cs.FingerMisses != 0 {
			t.Errorf("seed %d: counters differ or count finger steps:\nin place  %+v\nNext+Peek %+v", seed, cs, cn)
		}
	}
}

// TestSliceCursorAllocs pins the in-place cursor paths over a slice:
// steps, seeks and an ancestor probe appending into reused capacity
// allocate nothing.
func TestSliceCursorAllocs(t *testing.T) {
	var src AncestorSeeker = SliceSource{Els: sliceFixture} // boxed once, as a join's argument is
	it, _ := src.Scan(nil)
	var c cursor
	dst := make([]xmldoc.Element, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		c.bind(it)
		c.seek(src, 0, nil)
		for c.valid {
			c.advance()
		}
		c.seek(src, 5, nil)
		dst, _ = c.ancestors(src, dst[:0], 20, 0, nil)
	})
	if allocs != 0 {
		t.Errorf("slice cursor paths allocate %.1f per run, want 0", allocs)
	}
	sameStarts(t, "cursor.ancestors(20)", dst, 1, 2, 12)
}
