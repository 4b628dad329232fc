package core

import (
	"math/rand"
	"testing"

	"xrtree/internal/blink"
	"xrtree/internal/invariant"
	"xrtree/internal/metrics"
	"xrtree/internal/xmldoc"
)

// TestFindAncestorsStabBoundedLeafStart checks the descent's leaf scan,
// which starts after the largest start among the stab-list results, on a
// deeply nested set under 256-byte pages: there many stab-listed
// ancestors — the ones stabbed by the landed leaf's right-bracket key —
// start inside the probe's own leaf, ahead of its unflagged ancestors.
// Every start is probed with minStart 0 and with each of its ancestors'
// starts against brute force.
func TestFindAncestorsStabBoundedLeafStart(t *testing.T) {
	es := genNested(rand.New(rand.NewSource(45)), 600, 40)
	pool := newPool(t, 256, 512)
	tr := buildTree(t, pool, es, Options{})
	o := newOracle()
	for _, e := range es {
		o.insert(e)
	}
	inLeaf := 0
	for _, e := range es {
		sd := e.Start
		want := o.ancestors(sd, 0)
		got, err := tr.FindAncestors(sd, 0, nil)
		if err != nil {
			t.Fatalf("FindAncestors(%d): %v", sd, err)
		}
		sameElements(t, "FindAncestors", got, want)
		for _, a := range want {
			got, err := tr.FindAncestors(sd, a.Start, nil)
			if err != nil {
				t.Fatalf("FindAncestors(%d, %d): %v", sd, a.Start, err)
			}
			sameElements(t, "FindAncestors(minStart)", got, o.ancestors(sd, a.Start))
		}
		inLeaf += stabListedInLeaf(t, tr, sd)
	}
	if inLeaf == 0 {
		t.Fatal("no stab-listed ancestor starts inside its probe's leaf; the set does not exercise the bounded start")
	}
}

// stabListedInLeaf counts the ancestors of sd, an indexed start, that are
// stab-listed and lie on sd's own leaf.
func stabListedInLeaf(t *testing.T, tr *Tree, sd uint32) int {
	t.Helper()
	it, err := tr.SeekGE(sd, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	leaf, idx := it.Leaf()
	n := 0
	for j := 0; j < idx; j++ {
		el, fl := blink.LeafElem(leaf, j)
		if el.Start < sd && sd < el.End && fl&xmldoc.FlagInStabList != 0 {
			n++
		}
	}
	return n
}

// ancestorsSink keeps FindAncestors' results reachable, so that escape
// analysis cannot move them to the test's stack.
var ancestorsSink []xmldoc.Element

// TestFindAncestorsAllocs pins a probe's allocations: FindAncestors
// allocates its result once when no probe has more than findAncestorsCap
// ancestors, and AppendAncestors into a buffer with room allocates
// nothing.
func TestFindAncestorsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	es := genNested(rng, 2000, findAncestorsCap-1)
	pool := newPool(t, 1024, 1024)
	tr := buildTree(t, pool, es, Options{})
	probes := make([]uint32, 64)
	deepest := 0
	for i := range probes {
		probes[i] = es[rng.Intn(len(es))].Start + 1
		anc, err := tr.FindAncestors(probes[i], 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		deepest = max(deepest, len(anc))
	}
	if deepest == 0 || deepest > findAncestorsCap {
		t.Fatalf("deepest probe has %d ancestors, want 1..%d", deepest, findAncestorsCap)
	}
	var c metrics.Counters
	var err error
	perProbe := testing.AllocsPerRun(20, func() {
		for _, sd := range probes {
			anc, e := tr.FindAncestors(sd, 0, &c)
			if e != nil {
				err = e
			}
			ancestorsSink = anc
		}
	}) / float64(len(probes))
	if err != nil {
		t.Fatal(err)
	}
	if perProbe != 1 {
		t.Errorf("FindAncestors: %.3f allocs per probe, want 1", perProbe)
	}
	buf := make([]xmldoc.Element, 0, findAncestorsCap)
	if n := testing.AllocsPerRun(20, func() {
		for _, sd := range probes {
			if _, e := tr.AppendAncestors(buf, sd, 0, &c); e != nil {
				err = e
			}
		}
	}); n != 0 || err != nil {
		t.Errorf("AppendAncestors into a buffer with room: %v allocs per run, err %v; want 0", n, err)
	}
}

// TestFindDescendantsAllocs pins a range probe's allocations:
// FindDescendants allocates only its result, once when no probe has more
// than findDescendantsCap descendants.
func TestFindDescendantsAllocs(t *testing.T) {
	if invariant.Race {
		t.Skip("under the race detector sync.Pool drops pooled page buffers at random")
	}
	rng := rand.New(rand.NewSource(7))
	es := genNested(rng, 2000, 12)
	pool := newPool(t, 1024, 1024)
	tr := buildTree(t, pool, es, Options{})
	var hosts []xmldoc.Element
	for _, e := range es {
		des, err := tr.FindDescendants(e.Start, e.End, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(des) >= findDescendantsCap/2 && len(des) <= findDescendantsCap {
			hosts = append(hosts, e)
		}
	}
	if len(hosts) == 0 {
		t.Fatalf("no element has %d..%d descendants", findDescendantsCap/2, findDescendantsCap)
	}
	var c metrics.Counters
	var err error
	perProbe := testing.AllocsPerRun(20, func() {
		for _, h := range hosts {
			des, e := tr.FindDescendants(h.Start, h.End, &c)
			if e != nil {
				err = e
			}
			ancestorsSink = des
		}
	}) / float64(len(hosts))
	if err != nil {
		t.Fatal(err)
	}
	if perProbe != 1 {
		t.Errorf("FindDescendants: %.3f allocs per probe, want 1", perProbe)
	}
}
