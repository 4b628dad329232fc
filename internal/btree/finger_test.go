package btree

// Finger equivalence: Iterator.SeekGE must give the same element stream as
// a fresh Tree.SeekGE for monotone key sequences, whether it searches the
// held leaf copy or re-descends. Trees come from a bulk load and from
// random insert/delete churn, so leaf high keys are produced by the loader
// as well as by splits and merges.

import (
	"math/rand"
	"slices"
	"testing"

	"xrtree/internal/metrics"
	"xrtree/internal/xmldoc"
)

func fingerTrees(t *testing.T) map[string]*Tree {
	t.Helper()
	es := make([]xmldoc.Element, 1500)
	for i := range es {
		es[i] = elem(uint32(3*i + 2))
	}
	bulk, err := New(newPool(t, 256, 64), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BulkLoad(es, 1.0); err != nil {
		t.Fatal(err)
	}

	churn, err := New(newPool(t, 256, 64), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := churn.BulkLoad(es, 0.8); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	live := make(map[uint32]bool)
	for _, e := range es {
		live[e.Start] = true
	}
	for op := 0; op < 6000; op++ {
		k := uint32(rng.Intn(3*len(es)) + 1)
		if live[k] {
			if err := churn.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(live, k)
		} else if rng.Intn(3) == 0 {
			if err := churn.Insert(elem(k)); err != nil {
				t.Fatal(err)
			}
			live[k] = true
		}
	}
	return map[string]*Tree{"bulk": bulk, "churn": churn}
}

// fingerKeys is a sorted key set covering the seek edge cases: zero, every
// start and the gap after it, each leaf's high key and high key − 1, and
// keys beyond the last element.
func fingerKeys(t *testing.T, tr *Tree) []uint32 {
	t.Helper()
	it, err := tr.Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	keys := []uint32{0}
	var last uint32
	for {
		for i := 0; i < leafCount(it.buf); i++ {
			last = leafKey(it.buf, i)
			keys = append(keys, last, last+1)
		}
		if h := leafHigh(it.buf); h != 0 {
			keys = append(keys, h-1, h)
		}
		if !it.advancePage() {
			break
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, last+1, last+9)
	slices.Sort(keys)
	return slices.Compact(keys)
}

func TestFingerSeekMatchesFreshSeek(t *testing.T) {
	for name, tr := range fingerTrees(t) {
		keys := fingerKeys(t, tr)
		rng := rand.New(rand.NewSource(5))
		var c metrics.Counters
		for trial := 0; trial < 24; trial++ {
			it, err := tr.Scan(&c)
			if err != nil {
				t.Fatal(err)
			}
			// A monotone subsequence of the keys, of random density; once
			// per trial the iterator is drained to the end first.
			keep := 0.05 + 0.6*rng.Float64()
			drainAt := rng.Intn(len(keys))
			for i, k := range keys {
				if rng.Float64() > keep {
					continue
				}
				if i >= drainAt {
					for _, ok := it.Next(); ok; _, ok = it.Next() {
					}
					drainAt = len(keys)
				}
				if err := it.SeekGE(k); err != nil {
					t.Fatalf("%s: finger SeekGE(%d): %v", name, k, err)
				}
				fresh, err := tr.SeekGE(k, nil)
				if err != nil {
					t.Fatal(err)
				}
				for j := rng.Intn(4); j >= 0; j-- {
					got, gok := it.Peek()
					want, wok := fresh.Peek()
					if got != want || gok != wok {
						t.Fatalf("%s: after SeekGE(%d): finger (%v,%v), fresh (%v,%v)", name, k, got, gok, want, wok)
					}
					if !gok {
						break
					}
					it.Next()
					fresh.Next()
				}
				if err := fresh.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if c.FingerHits == 0 || c.FingerMisses == 0 {
			t.Errorf("%s: finger hits %d, misses %d: both paths must run", name, c.FingerHits, c.FingerMisses)
		}
	}
}

func TestFingerSeekOnClosedIterator(t *testing.T) {
	tr := fingerTrees(t)["bulk"]
	it, err := tr.Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	it.Close()
	if err := it.SeekGE(10); err == nil {
		t.Error("SeekGE on a closed iterator succeeded")
	}
}
