package join

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"xrtree/internal/metrics"
	"xrtree/internal/xmldoc"
)

// cancelCase runs one algorithm over shared fixtures so every algorithm's
// cancellation path is exercised identically.
type cancelCase struct {
	name string
	run  func(a, d fixture, emit EmitFunc, c *metrics.Counters) error
}

func cancelCases(t *testing.T) []cancelCase {
	t.Helper()
	return []cancelCase{
		{"noindex", func(a, d fixture, emit EmitFunc, c *metrics.Counters) error {
			return StackTreeDesc(AncestorDescendant, a.list, d.list, emit, c)
		}},
		{"mpmgjn", func(a, d fixture, emit EmitFunc, c *metrics.Counters) error {
			return MPMGJNRuns(AncestorDescendant, a.list, d.list, EachPair(emit), c)
		}},
		{"bplus", func(a, d fixture, emit EmitFunc, c *metrics.Counters) error {
			return BPlus(AncestorDescendant, a.bt, d.bt, emit, c)
		}},
		{"xr", func(a, d fixture, emit EmitFunc, c *metrics.Counters) error {
			return XRStack(AncestorDescendant, a.xr, d.xr, emit, c)
		}},
	}
}

// TestCancelMidJoin cancels the context from inside the emit callback
// after a fixed number of pairs: every algorithm must stop promptly at
// its next poll point, return context.Canceled, and release every page
// pin on the way out.
func TestCancelMidJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	as, ds := genDoc(rng, 2000, 4000, 10)
	pool := newPool(t, 1024, 256)
	fa := buildFixture(t, pool, as)
	fd := buildFixture(t, pool, ds)

	// A full run for reference: the workload must be large enough that
	// cancellation really interrupts it.
	var full int64
	if err := StackTreeDesc(AncestorDescendant, fa.list, fd.list, func(xmldoc.Element, xmldoc.Element) { full++ }, nil); err != nil {
		t.Fatal(err)
	}
	const cancelAfter = 64
	if full < 4*cancelAfter {
		t.Fatalf("fixture too small: only %d pairs", full)
	}

	for _, tc := range cancelCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c := &metrics.Counters{Ctx: ctx}
			var emitted int64
			emit := func(xmldoc.Element, xmldoc.Element) {
				if emitted++; emitted == cancelAfter {
					cancel()
				}
			}
			err := tc.run(fa, fd, emit, c)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// Prompt: the join may run to at most the next poll point
			// (a page boundary or one poller stride) past the cancel.
			if emitted >= full {
				t.Errorf("join ran to completion (%d pairs) despite cancel at %d", emitted, cancelAfter)
			}
			if n := pool.PinnedCount(); n != 0 {
				t.Errorf("pinned pages after cancel = %d, want 0", n)
			}
		})
	}
}

// TestCancelMidJoinBPlusSP covers the sibling-pointer variant, which
// needs the sibling table built from the raw elements.
func TestCancelMidJoinBPlusSP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	as, ds := genDoc(rng, 2000, 4000, 10)
	pool := newPool(t, 1024, 256)
	fa := buildFixture(t, pool, as)
	fd := buildFixture(t, pool, ds)
	src := SiblingListSource{L: fa.list.L, Sib: BuildSiblingTable(as)}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &metrics.Counters{Ctx: ctx}
	var emitted int64
	err := BPlusSPRuns(AncestorDescendant, src, fd.bt, func(anc []xmldoc.Element, _ xmldoc.Element) {
		if emitted += int64(len(anc)); emitted >= 64 {
			cancel()
		}
	}, c)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Errorf("pinned pages after cancel = %d, want 0", n)
	}
}

// TestCancelBeforeJoin runs each algorithm with an already-canceled
// context: the join must fail at its first poll point, emitting at most
// a stride of pairs.
func TestCancelBeforeJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	as, ds := genDoc(rng, 1000, 2000, 8)
	pool := newPool(t, 1024, 256)
	fa := buildFixture(t, pool, as)
	fd := buildFixture(t, pool, ds)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the join starts
	for _, tc := range cancelCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			c := &metrics.Counters{Ctx: ctx}
			err := tc.run(fa, fd, func(xmldoc.Element, xmldoc.Element) {}, c)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want ctx error", err)
			}
			if n := pool.PinnedCount(); n != 0 {
				t.Errorf("pinned pages = %d, want 0", n)
			}
		})
	}
}

// TestCancelParallelJoin cancels a multi-document parallel join from the
// merged emit stream: in-flight partitions stop at their next poll point,
// undispatched partitions are skipped, and no pins leak.
func TestCancelParallelJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := newPool(t, 1024, 512)
	var tasks []Task
	for docID := uint32(1); docID <= 6; docID++ {
		as, ds := genDocID(rng, docID, 800, 1600, 8)
		fa := buildFixture(t, pool, as)
		fd := buildFixture(t, pool, ds)
		tasks = append(tasks, Task{
			DocID: docID,
			Run: func(emit EmitFunc, jc *metrics.Counters) error {
				return StackTreeDesc(AncestorDescendant, fa.list, fd.list, emit, jc)
			},
		})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := &metrics.Counters{Ctx: ctx}
	var emitted int64
	err := Parallel(tasks, Options{Workers: 3}, func(xmldoc.Element, xmldoc.Element) {
		if emitted++; emitted == 100 {
			cancel()
		}
	}, st)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Errorf("pinned pages after cancel = %d, want 0", n)
	}
}

// genDocID is genDoc for a chosen DocID (parallel tasks partition by it).
func genDocID(rng *rand.Rand, docID uint32, nA, nD, maxDepth int) (as, ds []xmldoc.Element) {
	as, ds = genDoc(rng, nA, nD, maxDepth)
	for i := range as {
		as[i].DocID = docID
	}
	for i := range ds {
		ds[i].DocID = docID
	}
	return as, ds
}
