package core

// Finger equivalence: an Iterator's SeekGE and AppendAncestors must answer
// exactly as a fresh Tree.SeekGE and Tree.AppendAncestors do, whether they
// search the held leaf copy or fall back to a descent. Trees come from a
// bulk load and from insert/delete churn, so leaf high keys are produced
// by the loader as well as by splits and merges.

import (
	"math/rand"
	"slices"
	"testing"

	"xrtree/internal/blink"
	"xrtree/internal/metrics"
	"xrtree/internal/xmldoc"
)

type fingerTree struct {
	name string
	tr   *Tree
	live []xmldoc.Element // start-sorted
}

func fingerTrees(t *testing.T) []fingerTree {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	es := genNested(rng, 2500, 9)

	bulk, err := New(newPool(t, 512, 256), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BulkLoad(es, 1.0); err != nil {
		t.Fatal(err)
	}

	// Churn: delete 60% in random order, then re-insert half of those.
	churn, err := New(newPool(t, 512, 256), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := churn.BulkLoad(es, 1.0); err != nil {
		t.Fatal(err)
	}
	o := newOracle()
	for _, e := range es {
		o.insert(e)
	}
	perm := rng.Perm(len(es))
	gone := perm[:len(es)*6/10]
	for _, i := range gone {
		if err := churn.Delete(es[i].Start); err != nil {
			t.Fatal(err)
		}
		o.remove(es[i].Start)
	}
	rng.Shuffle(len(gone), func(i, j int) { gone[i], gone[j] = gone[j], gone[i] })
	for _, i := range gone[:len(gone)/2] {
		if err := churn.Insert(es[i]); err != nil {
			t.Fatal(err)
		}
		o.insert(es[i])
	}
	if err := churn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return []fingerTree{{"bulk", bulk, es}, {"churn", churn, o.sorted()}}
}

// leafHighs returns the non-zero high keys of the leaf chain, left to right.
func leafHighs(t *testing.T, tr *Tree) []uint32 {
	t.Helper()
	it, err := tr.Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var hs []uint32
	for {
		leaf, _ := it.Leaf()
		h := blink.LeafHigh(leaf)
		if h == 0 {
			return hs
		}
		hs = append(hs, h)
		// A seek to the high key descends to the next leaf.
		if err := it.SeekGE(h); err != nil {
			t.Fatal(err)
		}
	}
}

// fingerKeys is a sorted key set covering the seek edge cases: zero, every
// start and the gap after it, each leaf's high key and high key − 1, and
// keys beyond the last element.
func fingerKeys(t *testing.T, ft fingerTree) []uint32 {
	keys := []uint32{0}
	for _, e := range ft.live {
		keys = append(keys, e.Start, e.Start+1)
	}
	last := ft.live[len(ft.live)-1].Start
	keys = append(keys, last+1, last+7)
	for _, h := range leafHighs(t, ft.tr) {
		keys = append(keys, h-1, h)
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

func TestFingerSeekMatchesFreshSeek(t *testing.T) {
	for _, ft := range fingerTrees(t) {
		keys := fingerKeys(t, ft)
		rng := rand.New(rand.NewSource(5))
		var c metrics.Counters
		for trial := 0; trial < 24; trial++ {
			it, err := ft.tr.Scan(&c)
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
					t.Fatalf("%s: finger SeekGE(%d): %v", ft.name, k, err)
				}
				fresh, err := ft.tr.SeekGE(k, nil)
				if err != nil {
					t.Fatal(err)
				}
				// Compare the streams for a few elements past the seek.
				for j := rng.Intn(4); j >= 0; j-- {
					got, gok := it.Peek()
					want, wok := fresh.Peek()
					if got != want || gok != wok {
						t.Fatalf("%s: after SeekGE(%d): finger (%v,%v), fresh (%v,%v)", ft.name, k, got, gok, want, wok)
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
			t.Errorf("%s: finger hits %d, misses %d: both paths must run", ft.name, c.FingerHits, c.FingerMisses)
		}
	}
}

func TestFingerAncestorsMatchTree(t *testing.T) {
	sub := func(a, b uint32) uint32 {
		if a < b {
			return 0
		}
		return a - b
	}
	for _, ft := range fingerTrees(t) {
		rng := rand.New(rand.NewSource(9))
		last := ft.live[len(ft.live)-1].Start
		var c metrics.Counters
		it, err := ft.tr.Scan(&c)
		if err != nil {
			t.Fatal(err)
		}
		hits, misses := 0, 0
		sentinel := xmldoc.Element{Start: 1 << 31}
		for {
			leaf, _ := it.Leaf()
			lo, next := blink.LeafKey(leaf, 0), blink.LeafHigh(leaf)
			high := next
			if high == 0 {
				high = last + 3
			}
			for sd := lo; sd <= high+1; sd += 1 + uint32(rng.Intn(3)) {
				for _, minStart := range []uint32{0, sub(lo, 2), sub(lo, 1), lo, lo + (sd-lo)/2, sub(sd, 2), sub(sd, 1)} {
					hits0, misses0, scanned0 := c.FingerHits, c.FingerMisses, c.ElementsScanned
					got, err := it.AppendAncestors([]xmldoc.Element{sentinel}, sd, minStart)
					if err != nil {
						t.Fatal(err)
					}
					var ct metrics.Counters
					want, err := ft.tr.AppendAncestors([]xmldoc.Element{sentinel}, sd, minStart, &ct)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: AppendAncestors(%d, %d): leaf-local %v, tree %v", ft.name, sd, minStart, got, want)
					}
					if c.FingerMisses > misses0 {
						misses++
					}
					if c.FingerHits > hits0 {
						hits++
						if n := c.ElementsScanned - scanned0; n != ct.ElementsScanned {
							t.Fatalf("%s: AppendAncestors(%d, %d) scanned %d leaf-local, %d in the tree", ft.name, sd, minStart, n, ct.ElementsScanned)
						}
					}
				}
			}
			if next == 0 {
				break
			}
			// A seek to the high key descends to the next leaf, with the
			// cursor on its first entry.
			if err := it.SeekGE(next); err != nil {
				t.Fatal(err)
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if hits == 0 || misses == 0 {
			t.Errorf("%s: %d leaf-local answers, %d fallbacks: both paths must run", ft.name, hits, misses)
		}
	}
}

// TestFingerSeekAllocs pins the allocation-free finger paths: seeks that
// gallop within the held leaf, seeks that re-descend into the same buffer,
// a leaf-local ancestor probe appending into reused capacity, and steps
// across a leaf boundary.
func TestFingerSeekAllocs(t *testing.T) {
	ft := fingerTrees(t)[0]
	it, err := ft.tr.Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	far := ft.live[len(ft.live)/2].Start
	dst := make([]xmldoc.Element, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		it.SeekGE(2)
		it.SeekGE(3)
		it.SeekGE(far)
		dst, _ = it.AppendAncestors(dst[:0], far+1, far-1)
		for i := 0; i < 80; i++ {
			cursorStep(&it.Iterator)
		}
	})
	if allocs != 0 {
		t.Errorf("finger paths allocate %.1f per run, want 0", allocs)
	}
}

// TestStepMatchesNextPeek runs one random program of moves on two
// iterators over the same tree. One advances as the join cursor does
// (StepInPage, else Next then Peek), the other with Next then Peek; both
// take the same Next, Peek and finger SeekGE moves in between. They must
// see the same elements and charge the same counters, finger counts
// included, across leaf boundaries and after the end.
func TestStepMatchesNextPeek(t *testing.T) {
	for _, ft := range fingerTrees(t) {
		keys := fingerKeys(t, ft)
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var cs, cn metrics.Counters
			s, err := ft.tr.Scan(&cs)
			if err != nil {
				t.Fatal(err)
			}
			n, err := ft.tr.Scan(&cn)
			if err != nil {
				t.Fatal(err)
			}
			for op, ended := 0, 0; ended < 8; op++ {
				var gs, gn xmldoc.Element
				var oks, okn bool
				switch r := rng.Intn(20); {
				case r < 14 || op > 4*len(ft.live):
					gs, oks = cursorStep(&s.Iterator)
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
					t.Fatalf("%s seed %d op %d: cursor side (%v,%v), Next+Peek side (%v,%v)", ft.name, seed, op, gs, oks, gn, okn)
				}
				if !oks {
					ended++
				}
			}
			if cs != cn {
				t.Errorf("%s seed %d: counters differ:\ncursor    %+v\nNext+Peek %+v", ft.name, seed, cs, cn)
			}
			if cs.LeafReads == 0 || cs.FingerHits == 0 {
				t.Errorf("%s seed %d: %d leaf reads, %d finger hits: the program must cross leaves and seek in place", ft.name, seed, cs.LeafReads, cs.FingerHits)
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
	it, err := fingerTrees(t)[1].tr.Scan(nil)
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
