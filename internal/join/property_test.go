package join

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xrtree/internal/metrics"
	"xrtree/internal/xmldoc"
)

// TestQuickAllAlgorithmsAgree is a property test: for any seed, all four
// algorithms produce exactly the reference join on a random document.
func TestQuickAllAlgorithmsAgree(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		as, ds := genDoc(rng, 40+rng.Intn(80), 60+rng.Intn(120), 1+rng.Intn(12))
		if len(as) == 0 || len(ds) == 0 {
			return true
		}
		pool := newPool(t, 512, 256)
		fa := buildFixture(t, pool, as)
		fd := buildFixture(t, pool, ds)
		want := Reference(AncestorDescendant, as, ds)

		for name, run := range map[string]func(emit EmitFunc) error{
			"stack": func(emit EmitFunc) error {
				return StackTreeDesc(AncestorDescendant, fa.list, fd.list, emit, nil)
			},
			"mpmgjn": func(emit EmitFunc) error {
				return MPMGJNRuns(AncestorDescendant, fa.list, fd.list, EachPair(emit), nil)
			},
			"bplus": func(emit EmitFunc) error {
				return BPlus(AncestorDescendant, fa.bt, fd.bt, emit, nil)
			},
			"xrstack": func(emit EmitFunc) error {
				return XRStack(AncestorDescendant, fa.xr, fd.xr, emit, nil)
			},
		} {
			var got []Pair
			if err := run(Collect(&got)); err != nil {
				t.Logf("seed %d %s: %v", seed, name, err)
				return false
			}
			if len(got) != len(want) {
				t.Logf("seed %d %s: %d pairs, want %d", seed, name, len(got), len(want))
				return false
			}
			sortPairs(got)
			w := append([]Pair(nil), want...)
			sortPairs(w)
			for i := range w {
				if got[i].A.Start != w[i].A.Start || got[i].D.Start != w[i].D.Start {
					t.Logf("seed %d %s: pair %d mismatch", seed, name, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestDrainAfterAncestorsExhausted covers the post-loop drain: the last
// ancestor contains a long tail of descendants that must still be emitted
// after A is exhausted.
func TestDrainAfterAncestorsExhausted(t *testing.T) {
	as := []xmldoc.Element{{DocID: 1, Start: 1, End: 10000, Level: 1}}
	var ds []xmldoc.Element
	for i := 0; i < 200; i++ {
		ds = append(ds, xmldoc.Element{DocID: 1, Start: uint32(100 + 2*i), End: uint32(100 + 2*i + 1), Level: 2})
	}
	pool := newPool(t, 512, 128)
	fa := buildFixture(t, pool, as)
	fd := buildFixture(t, pool, ds)
	for name, run := range map[string]func(emit EmitFunc) error{
		"stack": func(emit EmitFunc) error {
			return StackTreeDesc(AncestorDescendant, fa.list, fd.list, emit, nil)
		},
		"bplus": func(emit EmitFunc) error {
			return BPlus(AncestorDescendant, fa.bt, fd.bt, emit, nil)
		},
		"xrstack": func(emit EmitFunc) error {
			return XRStack(AncestorDescendant, fa.xr, fd.xr, emit, nil)
		},
	} {
		n := 0
		if err := run(func(a, d xmldoc.Element) { n++ }); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 200 {
			t.Errorf("%s: %d pairs after drain, want 200", name, n)
		}
	}
}

// TestScanCountingSemantics pins the DESIGN.md accounting rules on a tiny
// fixed input so regressions in the counters are caught precisely.
func TestScanCountingSemantics(t *testing.T) {
	// Two flat ancestors, second one joining; two descendants under it.
	as := []xmldoc.Element{
		{DocID: 1, Start: 1, End: 2, Level: 2},
		{DocID: 1, Start: 10, End: 20, Level: 2},
	}
	ds := []xmldoc.Element{
		{DocID: 1, Start: 11, End: 12, Level: 3},
		{DocID: 1, Start: 13, End: 14, Level: 3},
	}
	pool := newPool(t, 512, 128)
	fa := buildFixture(t, pool, as)
	fd := buildFixture(t, pool, ds)

	var c metrics.Counters
	if err := StackTreeDesc(AncestorDescendant, fa.list, fd.list, nil2(), &c); err != nil {
		t.Fatal(err)
	}
	// The merge consumes both ancestors and both descendants.
	if c.ElementsScanned != 4 {
		t.Errorf("stack scanned %d, want 4", c.ElementsScanned)
	}

	c.Reset()
	if err := BPlus(AncestorDescendant, fa.bt, fd.bt, nil2(), &c); err != nil {
		t.Fatal(err)
	}
	// B+: examines a1 (skip, counts 1), pushes a2 (1), consumes d1, d2 (2).
	if c.ElementsScanned != 4 {
		t.Errorf("bplus scanned %d, want 4", c.ElementsScanned)
	}

	c.Reset()
	if err := XRStack(AncestorDescendant, fa.xr, fd.xr, nil2(), &c); err != nil {
		t.Fatal(err)
	}
	// XR: FindAncestors retrieves a2 once (1), consumes d1, d2 (2); a1 is
	// jumped over by the index, not scanned.
	if c.ElementsScanned != 3 {
		t.Errorf("xrstack scanned %d, want 3", c.ElementsScanned)
	}
}

func nil2() EmitFunc { return func(a, d xmldoc.Element) {} }
