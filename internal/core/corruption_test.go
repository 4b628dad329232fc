package core

import (
	"math/rand"
	"strings"
	"testing"

	"xrtree/internal/blink"
	"xrtree/internal/bufferpool"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// These tests corrupt pages deliberately and assert CheckInvariants notices
// — proving the safety net used throughout the randomized tests is not
// vacuous.

// buildCorruptible returns a tree with stab entries plus its pool.
func buildCorruptible(t *testing.T) (*Tree, *bufferpool.Pool) {
	t.Helper()
	rng := rand.New(rand.NewSource(151))
	es := genNested(rng, 300, 12)
	pool := newPool(t, 256, 256)
	tr := buildTree(t, pool, es, Options{})
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("pre-corruption invariants: %v", err)
	}
	entries, _ := tr.StabStats()
	if entries == 0 {
		t.Fatal("fixture has no stab entries")
	}
	return tr, pool
}

// mutatePage applies f to page id through the pool.
func mutatePage(t *testing.T, pool *bufferpool.Pool, id pagefile.PageID, f func(data []byte)) {
	t.Helper()
	data, err := pool.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	f(data)
	if err := pool.Unpin(id, true); err != nil {
		t.Fatal(err)
	}
}

// findPage locates the first page of the given type by walking the file.
func findPage(t *testing.T, tr *Tree, pool *bufferpool.Pool, pageType byte) pagefile.PageID {
	t.Helper()
	n := pool.File().NumPages()
	for id := 1; id < n; id++ {
		data, err := pool.Fetch(pagefile.PageID(id))
		if err != nil {
			continue
		}
		typ := data[0]
		pool.Unpin(pagefile.PageID(id), false)
		if typ == pageType && pagefile.PageID(id) != tr.Meta() {
			return pagefile.PageID(id)
		}
	}
	t.Fatalf("no page of type %d found", pageType)
	return pagefile.InvalidPage
}

func expectViolation(t *testing.T, tr *Tree, what string) {
	t.Helper()
	err := tr.CheckInvariants()
	if err == nil {
		t.Fatalf("%s: CheckInvariants accepted corrupted tree", what)
	}
	if !strings.Contains(err.Error(), "xrtree") {
		t.Errorf("%s: unexpected error text %q", what, err)
	}
}

func TestCheckerDetectsFlippedLeafFlag(t *testing.T) {
	tr, pool := buildCorruptible(t)
	leaf := findPage(t, tr, pool, blink.LeafType)
	mutatePage(t, pool, leaf, func(data []byte) {
		// Flip the InStabList flag of the first entry.
		_, fl := blink.LeafElem(data, 0)
		blink.SetLeafFlags(data, 0, fl^xmldoc.FlagInStabList)
	})
	expectViolation(t, tr, "flipped flag")
}

func TestCheckerDetectsCorruptedPSPE(t *testing.T) {
	tr, pool := buildCorruptible(t)
	// Find an internal node with a non-empty PSL and wreck its (ps, pe).
	n := pool.File().NumPages()
	for id := 1; id < n; id++ {
		pid := pagefile.PageID(id)
		if pid == tr.Meta() {
			continue
		}
		data, err := pool.Fetch(pid)
		if err != nil {
			continue
		}
		if data[0] != internalType {
			pool.Unpin(pid, false)
			continue
		}
		m := intShape.Count(data)
		hit := false
		for i := 0; i < m; i++ {
			if keyPS(data, i) != 0 {
				setKeyPSPE(data, i, keyPS(data, i)+1, keyPE(data, i))
				hit = true
				break
			}
		}
		pool.Unpin(pid, true)
		if hit {
			expectViolation(t, tr, "corrupted ps")
			return
		}
	}
	t.Skip("no internal node with stab entries at this page size")
}

func TestCheckerDetectsUnsortedLeaf(t *testing.T) {
	tr, pool := buildCorruptible(t)
	leaf := findPage(t, tr, pool, blink.LeafType)
	mutatePage(t, pool, leaf, func(data []byte) {
		if blink.LeafCount(data) < 2 {
			t.Skip("leaf too small")
		}
		// Swap the first two entries.
		var a, b [xmldoc.EncodedSize]byte
		copy(a[:], blink.LeafEntry(data, 0))
		copy(b[:], blink.LeafEntry(data, 1))
		copy(blink.LeafEntry(data, 0), b[:])
		copy(blink.LeafEntry(data, 1), a[:])
	})
	expectViolation(t, tr, "unsorted leaf")
}

func TestCheckerDetectsStabKeyMismatch(t *testing.T) {
	tr, pool := buildCorruptible(t)
	stab := findPage(t, tr, pool, stabType)
	mutatePage(t, pool, stab, func(data []byte) {
		en := stabEntryAt(data, 0)
		en.key++ // no longer the primary stabbing key value
		putStabEntry(data, 0, en)
	})
	expectViolation(t, tr, "stab key mismatch")
}

func TestCheckerDetectsCountDrift(t *testing.T) {
	tr, pool := buildCorruptible(t)
	_ = pool
	tr.count.Add(1) // meta count no longer matches the leaves
	expectViolation(t, tr, "count drift")
	tr.count.Add(-1)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("restored tree should pass: %v", err)
	}
}
