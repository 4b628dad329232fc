package xrtree_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"xrtree"
)

// genDocXML builds one synthetic document: na top-level <a> subtrees, each
// holding nested <a> and <d> elements, so the a//d join has work in every
// document.
func genDocXML(rng *rand.Rand, na int) string {
	var b strings.Builder
	b.WriteString("<r>")
	var subtree func(depth int)
	subtree = func(depth int) {
		b.WriteString("<a>")
		kids := rng.Intn(4) + 1
		for i := 0; i < kids; i++ {
			if depth < 3 && rng.Intn(3) == 0 {
				subtree(depth + 1)
			} else {
				b.WriteString("<d/>")
			}
		}
		b.WriteString("</a>")
	}
	for i := 0; i < na; i++ {
		subtree(0)
	}
	b.WriteString("</r>")
	return b.String()
}

func newParallelCollection(t *testing.T, docs int) *xrtree.Collection {
	t.Helper()
	store, err := xrtree.NewMemStore(xrtree.StoreOptions{PageSize: 1024, BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	coll := store.NewCollection()
	rng := rand.New(rand.NewSource(7))
	for id := 1; id <= docs; id++ {
		doc, err := xrtree.ParseXML(strings.NewReader(genDocXML(rng, 60)), uint32(id))
		if err != nil {
			t.Fatal(err)
		}
		if err := coll.Add(doc); err != nil {
			t.Fatal(err)
		}
	}
	return coll
}

// TestParallelJoinMatchesSequential checks the central claim of the
// parallel driver: for every worker count, the pair stream and the merged
// index-level counters are identical to the sequential per-document loop.
// Run with -race for concurrency coverage of the latched read path.
func TestParallelJoinMatchesSequential(t *testing.T) {
	coll := newParallelCollection(t, 8)

	var seqPairs []xrtree.Pair
	var seqStats xrtree.Stats
	if err := coll.Join(xrtree.AlgXRStack, xrtree.AncestorDescendant, "a", "d",
		func(a, d xrtree.Element) { seqPairs = append(seqPairs, xrtree.Pair{A: a, D: d}) }, &seqStats); err != nil {
		t.Fatal(err)
	}
	if len(seqPairs) == 0 {
		t.Fatal("sequential join produced no pairs; workload broken")
	}

	for _, workers := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var pairs []xrtree.Pair
			var st xrtree.Stats
			err := coll.ParallelJoin(xrtree.AlgXRStack, xrtree.AncestorDescendant, "a", "d",
				func(a, d xrtree.Element) { pairs = append(pairs, xrtree.Pair{A: a, D: d}) },
				&st, xrtree.ParallelJoinOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(pairs) != len(seqPairs) {
				t.Fatalf("%d pairs, want %d", len(pairs), len(seqPairs))
			}
			for i := range pairs {
				if pairs[i] != seqPairs[i] {
					t.Fatalf("pair %d = %v, want %v (order must match the sequential join)", i, pairs[i], seqPairs[i])
				}
			}
			if st.ElementsScanned != seqStats.ElementsScanned ||
				st.OutputPairs != seqStats.OutputPairs ||
				st.IndexNodeReads != seqStats.IndexNodeReads ||
				st.LeafReads != seqStats.LeafReads ||
				st.StabPageReads != seqStats.StabPageReads {
				t.Fatalf("merged counters diverge from sequential:\n  par: %s\n  seq: %s", st.String(), seqStats.String())
			}
		})
	}
}

// TestParallelJoinAllAlgorithms runs every algorithm through the parallel
// driver and cross-checks pair counts against the sequential join.
func TestParallelJoinAllAlgorithms(t *testing.T) {
	coll := newParallelCollection(t, 4)
	for _, alg := range []xrtree.Algorithm{xrtree.AlgNoIndex, xrtree.AlgBPlus, xrtree.AlgXRStack} {
		var seq, par int
		if err := coll.Join(alg, xrtree.AncestorDescendant, "a", "d",
			func(a, d xrtree.Element) { seq++ }, nil); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := coll.ParallelJoin(alg, xrtree.AncestorDescendant, "a", "d",
			func(a, d xrtree.Element) { par++ }, nil, xrtree.ParallelJoinOptions{Workers: 4}); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if par != seq {
			t.Errorf("%s: parallel %d pairs, sequential %d", alg, par, seq)
		}
	}
}

// TestObservedParallelJoin checks the merged JoinReport: counters, traced
// events from all workers, and physical I/O recovered from the collector.
func TestObservedParallelJoin(t *testing.T) {
	coll := newParallelCollection(t, 6)
	rep, err := coll.ObservedParallelJoin(xrtree.AlgXRStack, xrtree.AncestorDescendant, "a", "d",
		nil, nil, xrtree.ParallelJoinOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.OutputPairs == 0 {
		t.Fatal("no output pairs observed")
	}
	if rep.Stats.ElementsScanned == 0 {
		t.Fatal("no scans observed")
	}
	if rep.Phases.AncProbes == 0 {
		t.Fatal("no ancestor probes in phase breakdown")
	}
	if rep.Stats.Elapsed <= 0 {
		t.Fatal("Elapsed not set")
	}
	if rep.SkipEffectiveness < 0 || rep.SkipEffectiveness > 1 {
		t.Fatalf("SkipEffectiveness = %v out of range", rep.SkipEffectiveness)
	}
}

// TestParallelJoinElapsedWithinWall checks that the driver's Elapsed is
// the join's wall-clock time for one worker as for several: the
// sequential path once timed each task's join and the loop around them,
// reporting about twice the wall time.
func TestParallelJoinElapsedWithinWall(t *testing.T) {
	coll := newParallelCollection(t, 8)
	// Build every document's indexes first, so the timed runs are joins.
	if err := coll.Join(xrtree.AlgXRStack, xrtree.AncestorDescendant, "a", "d", nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		var st xrtree.Stats
		start := time.Now()
		err := coll.ParallelJoin(xrtree.AlgXRStack, xrtree.AncestorDescendant, "a", "d", nil, &st,
			xrtree.ParallelJoinOptions{Workers: workers})
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if st.Elapsed <= 0 || st.Elapsed > wall {
			t.Errorf("workers=%d: Elapsed %v, want in (0, %v]", workers, st.Elapsed, wall)
		}
	}
}

// TestObservedParallelJoinKeepSkip checks that skip effectiveness counts
// only the inputs of the documents the join ran over: a no-index join
// scans every input of the one document Keep accepts, so it skipped none.
func TestObservedParallelJoinKeepSkip(t *testing.T) {
	coll := newParallelCollection(t, 8)
	rep, err := coll.ObservedParallelJoin(xrtree.AlgNoIndex, xrtree.AncestorDescendant, "a", "d", nil, nil,
		xrtree.ParallelJoinOptions{Workers: 2, Keep: func(id uint32) bool { return id == 3 }})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.ElementsScanned == 0 {
		t.Fatal("no scans observed")
	}
	if rep.SkipEffectiveness != 0 {
		t.Errorf("SkipEffectiveness = %v after scanning %d elements, want 0",
			rep.SkipEffectiveness, rep.Stats.ElementsScanned)
	}
}

// TestCollectionJoinCanceled checks that Stats.Ctx cancels a collection
// join on the sequential and the concurrent path alike.
func TestCollectionJoinCanceled(t *testing.T) {
	coll := newParallelCollection(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		st := xrtree.Stats{Ctx: ctx}
		err := coll.ParallelJoin(xrtree.AlgXRStack, xrtree.AncestorDescendant, "a", "d", nil, &st,
			xrtree.ParallelJoinOptions{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}
