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

	"xrtree/internal/blink"
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
		leaf, _ := it.Leaf()
		for i := 0; i < blink.LeafCount(leaf); i++ {
			last = blink.LeafKey(leaf, i)
			keys = append(keys, last, last+1)
		}
		h := blink.LeafHigh(leaf)
		if h == 0 {
			break
		}
		keys = append(keys, h-1, h)
		// A seek to the high key descends to the next leaf.
		if err := it.SeekGE(h); err != nil {
			t.Fatal(err)
		}
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

// TestStepMatchesNextPeek runs one random program of moves on two
// iterators over the same tree. One advances as the join cursor does
// (StepInPage, else Next then Peek), the other with Next then Peek; both
// take the same Next, Peek and finger SeekGE moves in between. They must
// see the same elements and charge the same counters, finger counts
// included, across leaf boundaries and after the end.
func TestStepMatchesNextPeek(t *testing.T) {
	for name, tr := range fingerTrees(t) {
		keys := fingerKeys(t, tr)
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var cs, cn metrics.Counters
			s, err := tr.Scan(&cs)
			if err != nil {
				t.Fatal(err)
			}
			n, err := tr.Scan(&cn)
			if err != nil {
				t.Fatal(err)
			}
			for op, ended := 0, 0; ended < 8; op++ {
				var gs, gn xmldoc.Element
				var oks, okn bool
				switch r := rng.Intn(20); {
				case r < 14 || op > 4*len(keys):
					gs, oks = cursorStep(s)
					n.Next()
					gn, okn = n.Peek()
				case r < 16:
					gs, oks = s.Next()
					gn, okn = n.Next()
				case r < 17:
					gs, oks = s.Peek()
					gn, okn = n.Peek()
				default:
					// Mostly a short forward seek; now and then any key, which
					// may lie behind the cursor or beyond the held leaf.
					k := keys[rng.Intn(len(keys))]
					s.Peek()
					if cur, ok := n.Peek(); ok && r < 19 {
						k = cur.Start + uint32(rng.Intn(40))
					}
					if err := s.SeekGE(k); err != nil {
						t.Fatal(err)
					}
					if err := n.SeekGE(k); err != nil {
						t.Fatal(err)
					}
					gs, oks = s.Peek()
					gn, okn = n.Peek()
				}
				if gs != gn || oks != okn {
					t.Fatalf("%s seed %d op %d: cursor side (%v,%v), Next+Peek side (%v,%v)", name, seed, op, gs, oks, gn, okn)
				}
				if !oks {
					ended++
				}
			}
			if cs != cn {
				t.Errorf("%s seed %d: counters differ:\ncursor    %+v\nNext+Peek %+v", name, seed, cs, cn)
			}
			if cs.LeafReads == 0 || cs.FingerHits == 0 {
				t.Errorf("%s seed %d: %d leaf reads, %d finger hits: the program must cross leaves and seek in place", name, seed, cs.LeafReads, cs.FingerHits)
			}
			s.Close()
			n.Close()
		}
	}
}

// TestLeafSearchFrom checks the galloping search against the plain binary
// search on every leaf of a churned tree, from every cursor position, for
// keys below, inside, equal to and above the entries.
func TestLeafSearchFrom(t *testing.T) {
	it, err := fingerTrees(t)["churn"].Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	leaves := 0
	for {
		if _, ok := it.Peek(); !ok {
			break
		}
		if data, idx := it.Leaf(); idx == 0 {
			leaves++
			n := blink.LeafCount(data)
			keys := []uint32{0, 1 << 31}
			for i := 0; i < n; i++ {
				k := blink.LeafKey(data, i)
				keys = append(keys, k-1, k, k+1)
			}
			for hint := 0; hint <= n; hint++ {
				for _, k := range keys {
					if got, want := blink.LeafSearchFrom(data, hint, k), blink.LeafSearch(data, k); got != want {
						t.Fatalf("leaf %d of %d entries: LeafSearchFrom(hint %d, key %d) = %d, LeafSearch = %d", leaves, n, hint, k, got, want)
					}
				}
			}
		}
		it.Next()
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if leaves < 2 {
		t.Fatalf("checked %d leaves: the churned tree must span several", leaves)
	}
}

// TestStepAndFingerAllocs pins the allocation-free cursor paths: seeks that
// gallop within the held leaf, a seek that re-descends into the same
// buffer, and steps across a leaf boundary.
func TestStepAndFingerAllocs(t *testing.T) {
	it, err := fingerTrees(t)["bulk"].Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	allocs := testing.AllocsPerRun(100, func() {
		it.SeekGE(2)
		it.SeekGE(9)
		it.SeekGE(2000)
		for i := 0; i < 80; i++ {
			cursorStep(it)
		}
	})
	if allocs != 0 {
		t.Errorf("cursor paths allocate %.1f per run, want 0", allocs)
	}
}

// cursorStep advances it the way the join cursor does: StepInPage, else
// Next then Peek.
func cursorStep(it *blink.Iterator) (xmldoc.Element, bool) {
	if page, off, ok := it.StepInPage(); ok {
		e, _ := xmldoc.DecodeElement(page[off:])
		e.DocID = it.DocID()
		return e, true
	}
	it.Next()
	return it.Peek()
}
