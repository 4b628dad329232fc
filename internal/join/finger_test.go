package join

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"xrtree/internal/core"
	"xrtree/internal/metrics"
	"xrtree/internal/xmldoc"
)

// plainIter forwards only the Iterator methods, hiding the wrapped
// iterator's finger and in-page steps, the way a decorating source's
// iterator does.
type plainIter struct{ Iterator }

// plainSource decorates a source so every iterator it hands out is a
// plainIter: joins over it step with Next and Peek, and take the Seeker
// path for every skip and probe, as they did before iterators had fingers.
type plainSource struct{ s Source }

func (p plainSource) Len() int { return p.s.Len() }

func (p plainSource) Scan(c *metrics.Counters) (Iterator, error) {
	it, err := p.s.Scan(c)
	if err != nil {
		return nil, err
	}
	return plainIter{it}, nil
}

func (p plainSource) SeekGE(key uint32, c *metrics.Counters) (Iterator, error) {
	it, err := p.s.(Seeker).SeekGE(key, c)
	if err != nil {
		return nil, err
	}
	return plainIter{it}, nil
}

func (p plainSource) AppendAncestors(dst []xmldoc.Element, sd, minStart uint32, c *metrics.Counters) ([]xmldoc.Element, error) {
	return p.s.(AncestorSeeker).AppendAncestors(dst, sd, minStart, c)
}

// TestQuickFingerMatchesSeekerPath is a property test: for any seed, the
// direct path (fingers and in-page steps) and the decorated path (Next,
// Peek and the Seeker) of XR-stack, B+ and the no-index join emit the same
// pairs in the same order with the same elements-scanned count, in both
// modes; the direct path touches no more index pages, and for the no-index
// join, which has no index to skip with, exactly as many list pages.
// XR-stack and B+ run over in-memory SliceSources too, whose direct path
// seeks and probes the slice in place and counts no finger steps.
func TestQuickFingerMatchesSeekerPath(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		as, ds := genDoc(rng, 40+rng.Intn(200), 60+rng.Intn(300), 1+rng.Intn(12))
		if len(as) == 0 || len(ds) == 0 {
			return true
		}
		pool := newPool(t, 512, 256)
		fa := buildFixture(t, pool, as)
		fd := buildFixture(t, pool, ds)
		for _, mode := range []Mode{AncestorDescendant, ParentChild} {
			for name, run := range map[string]func(finger bool, emit EmitFunc, c *metrics.Counters) error{
				"xrstack": func(finger bool, emit EmitFunc, c *metrics.Counters) error {
					if finger {
						return XRStack(mode, fa.xr, fd.xr, emit, c)
					}
					return XRStack(mode, plainSource{fa.xr}, plainSource{fd.xr}, emit, c)
				},
				"bplus": func(finger bool, emit EmitFunc, c *metrics.Counters) error {
					if finger {
						return BPlus(mode, fa.bt, fd.bt, emit, c)
					}
					return BPlus(mode, plainSource{fa.bt}, plainSource{fd.bt}, emit, c)
				},
				"xrstack-slice": func(finger bool, emit EmitFunc, c *metrics.Counters) error {
					a, d := SliceSource{Els: as}, SliceSource{Els: ds}
					if finger {
						return XRStack(mode, a, d, emit, c)
					}
					return XRStack(mode, plainSource{a}, plainSource{d}, emit, c)
				},
				"bplus-slice": func(finger bool, emit EmitFunc, c *metrics.Counters) error {
					a, d := SliceSource{Els: as}, SliceSource{Els: ds}
					if finger {
						return BPlus(mode, a, d, emit, c)
					}
					return BPlus(mode, plainSource{a}, plainSource{d}, emit, c)
				},
				"noindex": func(finger bool, emit EmitFunc, c *metrics.Counters) error {
					if finger {
						return StackTreeDesc(mode, fa.list, fd.list, emit, c)
					}
					return StackTreeDesc(mode, plainSource{fa.list}, plainSource{fd.list}, emit, c)
				},
			} {
				var fp, sp []Pair
				var fc, sc metrics.Counters
				if err := run(true, Collect(&fp), &fc); err != nil {
					t.Logf("seed %d %s finger: %v", seed, name, err)
					return false
				}
				if err := run(false, Collect(&sp), &sc); err != nil {
					t.Logf("seed %d %s seeker: %v", seed, name, err)
					return false
				}
				if len(fp) != len(sp) {
					t.Logf("seed %d %s mode %d: %d pairs by finger, %d by seeker", seed, name, mode, len(fp), len(sp))
					return false
				}
				for i := range fp {
					if fp[i] != sp[i] {
						t.Logf("seed %d %s mode %d: pair %d is %v by finger, %v by seeker", seed, name, mode, i, fp[i], sp[i])
						return false
					}
				}
				if fc.ElementsScanned != sc.ElementsScanned || fc.OutputPairs != sc.OutputPairs {
					t.Logf("seed %d %s mode %d: scanned/pairs %d/%d by finger, %d/%d by seeker",
						seed, name, mode, fc.ElementsScanned, fc.OutputPairs, sc.ElementsScanned, sc.OutputPairs)
					return false
				}
				fpages := fc.IndexNodeReads + fc.LeafReads + fc.StabPageReads
				spages := sc.IndexNodeReads + sc.LeafReads + sc.StabPageReads
				if fpages > spages {
					t.Logf("seed %d %s mode %d: finger read %d index pages, seeker %d", seed, name, mode, fpages, spages)
					return false
				}
				if name == "noindex" && fc.LeafReads != sc.LeafReads {
					t.Logf("seed %d noindex mode %d: %d list pages read by in-page steps, %d by Next+Peek", seed, mode, fc.LeafReads, sc.LeafReads)
					return false
				}
				if sc.FingerHits+sc.FingerMisses != 0 {
					t.Logf("seed %d %s: the seeker path counted finger steps", seed, name)
					return false
				}
				if strings.HasSuffix(name, "-slice") && fc.FingerHits+fc.FingerMisses+fpages != 0 {
					t.Logf("seed %d %s: the in-memory join counted finger steps or page reads", seed, name)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestFingerCountsPinned pins the finger counters on one fixed seeded join
// per algorithm, so a change in when steps stay in the held leaf shows up
// as a diff here.
func TestFingerCountsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	as, ds := genDoc(rng, 300, 500, 8)
	pool := newPool(t, 512, 256)
	fa := buildFixture(t, pool, as)
	fd := buildFixture(t, pool, ds)
	for _, tc := range []struct {
		name         string
		run          func(c *metrics.Counters) error
		hits, misses int64
	}{
		{"xrstack", func(c *metrics.Counters) error { return XRStack(AncestorDescendant, fa.xr, fd.xr, nil2(), c) }, 284, 14},
		{"bplus", func(c *metrics.Counters) error { return BPlus(AncestorDescendant, fa.bt, fd.bt, nil2(), c) }, 150, 4},
		{"noindex", func(c *metrics.Counters) error { return StackTreeDesc(AncestorDescendant, fa.list, fd.list, nil2(), c) }, 0, 0},
	} {
		var c metrics.Counters
		if err := tc.run(&c); err != nil {
			t.Fatal(err)
		}
		if c.FingerHits != tc.hits || c.FingerMisses != tc.misses {
			t.Errorf("%s: finger hits/misses = %d/%d, want %d/%d", tc.name, c.FingerHits, c.FingerMisses, tc.hits, tc.misses)
		}
	}
}

// TestXRStackFingerDuringChurn runs XR-stack joins while a writer inserts
// and deletes, forcing leaf splits and merges in both trees. Every emitted
// pair must be a true containment pair, and every pair among the
// pre-existing elements (which the writer never touches) must be present.
//
// Snapshot semantics: a cursor's finger answers from its private leaf copy
// as of the moment it was copied — exactly what the cursor's own Next and
// Peek already return — so a finger may miss an element inserted into
// that leaf afterwards or return one deleted since. Neither can drop a
// pre-existing element from a leaf that keeps it.
//
// The layout keeps that last premise true. Deletes rebalance by moving
// entries leftward (a merge empties the right page into the left one, a
// borrow from a right sibling moves its first entry left), and a scan
// whose copy of the left page predates such a move would not see the
// entry in either page; recycled merge pages are only ever reused for
// churn leaves. So the writer works strictly to the right of every
// pre-existing element, behind a buffer of permanent inserts at least two
// leaves wide: leaves holding pre-existing elements never underflow, and
// only churn entries ever move left.
func TestXRStackFingerDuringChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	as, ds := genDoc(rng, 600, 1000, 8)
	end := ds[len(ds)-1].End
	for _, a := range as {
		end = max(end, a.End)
	}
	// One pre-existing ancestor spans the churn region, so churned
	// descendants join too.
	as = append([]xmldoc.Element{{DocID: 1, Start: 1, End: end + 1<<20, Level: 1}}, as...)

	pool := newPool(t, 1024, 512)
	build := func(es []xmldoc.Element) *core.Tree {
		tr, err := core.New(pool, 1, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(es, 1.0); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ta, td := build(as), build(ds)
	want := Reference(AncestorDescendant, as, ds)
	old := make(map[Pair]bool, len(want))
	for _, p := range want {
		old[p] = true
	}

	// leafAt is a childless element: it nests inside the spanning ancestor
	// and contains no position, so it never changes which pre-existing
	// pairs exist. The buffer below is inserted before any join starts.
	leafAt := func(s uint32) xmldoc.Element { return xmldoc.Element{DocID: 1, Start: s, End: s + 1, Level: 9} }
	for i := uint32(0); i < 160; i++ {
		if err := ta.Insert(leafAt(end + 10 + 4*i)); err != nil {
			t.Fatal(err)
		}
		if err := td.Insert(leafAt(end + 12 + 4*i)); err != nil {
			t.Fatal(err)
		}
	}

	// The writer runs at least eight rounds and keeps going until the
	// readers finish; the readers run at least ten joins each and keep
	// going until the writer's eight rounds are done.
	var writerErr error
	warm, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		wr := rand.New(rand.NewSource(29))
		base := end + 2000
		for round := 0; ; round++ {
			if round == 8 {
				close(warm)
			}
			select {
			case <-stop:
				return
			default:
			}
			// 150 entries per tree overflow the 63-entry leaves (splits);
			// deleting them underflows those leaves again (merges).
			perm := wr.Perm(150)
			for _, i := range perm {
				if err := ta.Insert(leafAt(base + 4*uint32(i))); err != nil {
					writerErr = err
					return
				}
				if err := td.Insert(leafAt(base + 2 + 4*uint32(i))); err != nil {
					writerErr = err
					return
				}
			}
			wr.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			for _, i := range perm {
				if err := ta.Delete(base + 4*uint32(i)); err != nil {
					writerErr = err
					return
				}
				if err := td.Delete(base + 2 + 4*uint32(i)); err != nil {
					writerErr = err
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for joins := 0; ; joins++ {
				select {
				case <-warm:
					if joins >= 10 {
						return
					}
				case <-done: // the writer failed
					return
				default:
				}
				var got []Pair
				var err error
				//xrvet:bounded retries are capped at 20 per join
				for attempt := 0; ; attempt++ {
					got = got[:0]
					err = XRStack(AncestorDescendant, XRTreeSource{T: ta}, XRTreeSource{T: td}, Collect(&got), nil)
					// A merge can recycle a page under a scan; that is
					// detected (ErrCorrupt) and the join retried.
					if err == nil || !errors.Is(err, core.ErrCorrupt) || attempt >= 20 {
						break
					}
				}
				if err != nil {
					t.Errorf("join %d: %v", joins, err)
					return
				}
				for _, p := range got {
					if !(p.A.Start < p.D.Start && p.D.Start < p.A.End) {
						t.Errorf("join %d emitted non-containment pair %v", joins, p)
						return
					}
				}
				if n := countDistinct(got, old); n != len(old) {
					t.Errorf("join %d: %d of %d pre-existing pairs present", joins, n, len(old))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-done
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
	for _, tr := range []*core.Tree{ta, td} {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// countDistinct returns how many distinct pairs of got are in set.
func countDistinct(got []Pair, set map[Pair]bool) int {
	found := make(map[Pair]bool, len(set))
	for _, p := range got {
		if set[p] {
			found[p] = true
		}
	}
	return len(found)
}
