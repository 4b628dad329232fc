package xrtree_test

// Tests of the observability layer's end-to-end guarantees: stats
// propagation from every storage layer into one counter set, per-phase
// breakdowns for each algorithm, and the zero-overhead nil-tracer fast
// path.

import (
	"strings"
	"testing"

	"xrtree"
	"xrtree/internal/datagen"
	"xrtree/internal/workload"
)

// obsWorkload indexes a small deterministic corpus in a fresh store and
// returns both sets.
func obsWorkload(t testing.TB) (*xrtree.Store, *xrtree.ElementSet, *xrtree.ElementSet) {
	t.Helper()
	corpora, err := datagen.PaperCorpora(7, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	corpus := corpora[0]
	store, err := xrtree.NewMemStore(xrtree.StoreOptions{PageSize: 1024, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	a, err := store.IndexElements(corpus.Doc.ElementsByTag(corpus.AncestorTag), xrtree.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.IndexElements(corpus.Doc.ElementsByTag(corpus.DescendantTag), xrtree.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return store, a, d
}

// TestStatsPropagation audits the invariant behind every number the
// harness reports: the counters a join accumulates equal the deltas of the
// pool's and file's own always-on counters over the run.
func TestStatsPropagation(t *testing.T) {
	store, a, d := obsWorkload(t)
	for _, alg := range []xrtree.Algorithm{xrtree.AlgNoIndex, xrtree.AlgBPlus, xrtree.AlgXRStack} {
		if err := store.DropCache(); err != nil {
			t.Fatal(err)
		}
		poolBefore := store.PoolStats()
		fileBefore := store.FileStats()
		var st xrtree.Stats
		store.AttachStats(&st)
		err := xrtree.Join(alg, xrtree.AncestorDescendant, a, d, nil, &st)
		store.AttachStats(nil)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		poolAfter := store.PoolStats()
		fileAfter := store.FileStats()

		if got, want := st.BufferHits, poolAfter.BufferHits-poolBefore.BufferHits; got != want {
			t.Errorf("%s: join saw %d hits, pool delta %d", alg, got, want)
		}
		if got, want := st.BufferMisses, poolAfter.BufferMisses-poolBefore.BufferMisses; got != want {
			t.Errorf("%s: join saw %d misses, pool delta %d", alg, got, want)
		}
		if got, want := st.PageEvictions, poolAfter.PageEvictions-poolBefore.PageEvictions; got != want {
			t.Errorf("%s: join saw %d evictions, pool delta %d", alg, got, want)
		}
		// A read-only join faults every miss in from the file: the pool's
		// miss delta must equal the file's physical-read delta.
		if got, want := st.BufferMisses, fileAfter.PhysicalReads-fileBefore.PhysicalReads; got != want {
			t.Errorf("%s: %d misses but %d physical reads", alg, got, want)
		}
		if st.ElementsScanned == 0 || st.OutputPairs == 0 {
			t.Errorf("%s: empty-looking run: %+v", alg, st)
		}
	}
}

// TestObservedJoinPhases checks the traced per-phase breakdown: output
// events sum to the pair count for every algorithm, and the XR-stack run
// reports ancestor probes, skips on both sides, and a high skipping
// effectiveness on this low-selectivity-free workload.
func TestObservedJoinPhases(t *testing.T) {
	_, a, d := obsWorkload(t)
	var pairsRef int64
	for _, alg := range []xrtree.Algorithm{xrtree.AlgNoIndex, xrtree.AlgMPMGJN, xrtree.AlgBPlus, xrtree.AlgBPlusSP, xrtree.AlgXRStack} {
		rep, err := xrtree.ObservedJoin(alg, xrtree.AncestorDescendant, a, d, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if pairsRef == 0 {
			pairsRef = rep.Stats.OutputPairs
		}
		if rep.Stats.OutputPairs != pairsRef {
			t.Errorf("%s: %d pairs, want %d", alg, rep.Stats.OutputPairs, pairsRef)
		}
		if rep.Phases.OutputPairs != rep.Stats.OutputPairs {
			t.Errorf("%s: traced output %d != counter %d",
				alg, rep.Phases.OutputPairs, rep.Stats.OutputPairs)
		}
		if rep.Phases.OutputBatches == 0 {
			t.Errorf("%s: no output batches traced", alg)
		}
		if rep.SkipEffectiveness < 0 || rep.SkipEffectiveness > 1 {
			t.Errorf("%s: skip effectiveness %v out of range", alg, rep.SkipEffectiveness)
		}

		switch alg {
		case xrtree.AlgNoIndex, xrtree.AlgMPMGJN:
			if rep.Phases.AncSkips != 0 || rep.Phases.DescSkips != 0 {
				t.Errorf("%s: scan-based join reports skips: %+v", alg, rep.Phases)
			}
			if rep.FingerHitShare != 0 {
				t.Errorf("%s: scan-based join reports finger hit share %v", alg, rep.FingerHitShare)
			}
		case xrtree.AlgXRStack:
			if rep.FingerHitShare <= 0 || rep.FingerHitShare > 1 {
				t.Errorf("XR-stack: finger hit share %v, want in (0, 1]", rep.FingerHitShare)
			}
			if rep.Phases.AncProbes == 0 {
				t.Error("XR-stack: no ancestor probes traced")
			}
			if rep.Phases.IndexDescends == 0 {
				t.Error("XR-stack: no index descents traced")
			}
			if rep.Phases.AncSkips == 0 {
				t.Error("XR-stack: no ancestor skips traced")
			}
			if rep.Events.Events["StabScan"].Count == 0 && rep.Phases.StabScans != 0 {
				t.Error("XR-stack: snapshot and phases disagree on stab scans")
			}
		}

		txt := &strings.Builder{}
		if err := rep.Events.WriteText(txt); err != nil {
			t.Fatalf("%s: WriteText: %v", alg, err)
		}
		if !strings.Contains(txt.String(), "Output") {
			t.Errorf("%s: text export missing Output: %q", alg, txt.String())
		}
	}
}

// TestXRStackSkipsMore checks the Table 2 story through the new metric: on
// an ancestor-selectivity point where few ancestors join, XR-stack's
// skipping effectiveness must beat the no-index scan's (which is ~0 by
// construction).
func TestXRStackSkipsMore(t *testing.T) {
	corpora, err := datagen.PaperCorpora(7, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	corpus := corpora[0]
	// 5% of ancestors join, 99% of descendants do — the leftmost Table 2
	// column, where ancestor skipping matters most.
	sets := workload.VaryAncestorSelectivity(
		corpus.Doc.ElementsByTag(corpus.AncestorTag),
		corpus.Doc.ElementsByTag(corpus.DescendantTag), 0.05, 0.99, 7)
	store, err := xrtree.NewMemStore(xrtree.StoreOptions{PageSize: 1024, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	a, err := store.IndexElements(sets.A, xrtree.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.IndexElements(sets.D, xrtree.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noRep, err := xrtree.ObservedJoin(xrtree.AlgNoIndex, xrtree.AncestorDescendant, a, d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	xr, err := xrtree.ObservedJoin(xrtree.AlgXRStack, xrtree.AncestorDescendant, a, d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if noRep.SkipEffectiveness > 0.05 {
		t.Errorf("no-index skip effectiveness %v, want ~0", noRep.SkipEffectiveness)
	}
	if xr.SkipEffectiveness <= noRep.SkipEffectiveness+0.1 {
		t.Errorf("XR-stack skip effectiveness %v not clearly above no-index %v",
			xr.SkipEffectiveness, noRep.SkipEffectiveness)
	}
}

// TestNilTracerJoinAllocs locks in the zero-overhead fast path: a join
// with plain counters and no tracer allocates no more than it did before
// tracing existed (the join's own cursor/stack allocations only).
func TestNilTracerJoinAllocs(t *testing.T) {
	_, a, d := obsWorkload(t)
	var st xrtree.Stats
	base := testing.AllocsPerRun(3, func() {
		st.Reset()
		if err := xrtree.Join(xrtree.AlgXRStack, xrtree.AncestorDescendant, a, d, nil, &st); err != nil {
			t.Fatal(err)
		}
	})
	var stT xrtree.Stats
	stT.Tracer = xrtree.NewCollector()
	traced := testing.AllocsPerRun(3, func() {
		stT.Reset()
		if err := xrtree.Join(xrtree.AlgXRStack, xrtree.AncestorDescendant, a, d, nil, &stT); err != nil {
			t.Fatal(err)
		}
	})
	// The traced run must not allocate per event — the collector is
	// allocation-free after construction, so the two runs should allocate
	// alike (small slack for map/timer noise).
	if traced > base+8 {
		t.Errorf("traced join allocates %.0f vs %.0f untraced — per-event allocation?", traced, base)
	}
}

// BenchmarkJoinTracerOverhead measures the nil-tracer fast path against a
// live Collector; run with -bench to compare.
func BenchmarkJoinTracerOverhead(b *testing.B) {
	store, a, d := obsWorkload(b)
	run := func(b *testing.B, st *xrtree.Stats) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := xrtree.Join(xrtree.AlgXRStack, xrtree.AncestorDescendant, a, d, nil, st); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nil-tracer", func(b *testing.B) {
		var st xrtree.Stats
		run(b, &st)
	})
	b.Run("collector", func(b *testing.B) {
		st := xrtree.Stats{Tracer: xrtree.NewCollector()}
		store.AttachStats(&st)
		defer store.AttachStats(nil)
		run(b, &st)
	})
}
