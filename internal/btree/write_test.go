package btree

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"xrtree/internal/bufferpool"
	"xrtree/internal/invariant"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// writeHistoryGolden is the SHA-256 of the page file TestWriteHistoryGolden
// produces. It pins the write path's on-disk layout — page bytes,
// separators, split and merge points, free-page reuse order — so a
// refactor of the write side must reproduce it exactly.
const writeHistoryGolden = "a797fb5388381e879efc23677c4b8cf8c4a2b870587b587bc4739d4e58c5ecd6"

// TestWriteHistoryGolden runs a fixed write history on 512-byte pages — a
// seeded bulk load at fill 0.7, then ten rounds of seeded 10 % delete
// plus re-insert churn (see churnVictims), then n fresh inserts that
// split internal nodes — and compares a digest of the page file with
// writeHistoryGolden.
func TestWriteHistoryGolden(t *testing.T) {
	f := pagefile.NewMem(pagefile.Options{PageSize: 512})
	defer f.Close()
	pool, err := bufferpool.New(f, 32)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 4000
	perm := rng.Perm(3 * n)
	es := make([]xmldoc.Element, n)
	for i, p := range perm[:n] {
		es[i] = elem(uint32(p + 1))
	}
	xmldoc.SortByStart(es)
	if err := tr.BulkLoad(es, 0.7); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		victims := churnVictims(rng, n, round)
		for _, i := range victims {
			if err := tr.Delete(es[i].Start); err != nil {
				t.Fatalf("round %d: Delete(%d): %v", round, es[i].Start, err)
			}
		}
		for _, j := range rng.Perm(len(victims)) {
			if err := tr.Insert(es[victims[j]]); err != nil {
				t.Fatalf("round %d: Insert(%v): %v", round, es[victims[j]], err)
			}
		}
	}
	for _, p := range perm[n : 2*n] {
		if err := tr.Insert(elem(uint32(p + 1))); err != nil {
			t.Fatalf("growth: Insert(%d): %v", p+1, err)
		}
	}
	checkDigest(t, pool, writeHistoryGolden)
}

// rootHistoryGolden is the SHA-256 of the page file TestRootHistoryGolden
// produces.
const rootHistoryGolden = "123cf6b44ee13d9c5ac83c06c17e0ee9542b4fc762a09fb322f716fb5fa1b018"

// TestRootHistoryGolden covers what TestWriteHistoryGolden's history does
// not reach, on 256-byte pages under a 64-frame pool: 3 000 seeded inserts
// grow the tree from its root leaf through root splits, and 2 950 seeded
// deletes shrink it again through cascading merges and root shrinks. The
// small pool evicts throughout, so the stale bytes recycled pages carry
// also pin the order in which the write path touches pages.
func TestRootHistoryGolden(t *testing.T) {
	f := pagefile.NewMem(pagefile.Options{PageSize: 256})
	defer f.Close()
	pool, err := bufferpool.New(f, 64)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	perm := rng.Perm(9000)[:3000]
	for _, p := range perm {
		if err := tr.Insert(elem(uint32(p + 1))); err != nil {
			t.Fatal(err)
		}
	}
	grown := tr.Height()
	for _, i := range rng.Perm(len(perm))[:2950] {
		if err := tr.Delete(uint32(perm[i] + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if grown < 3 || tr.Height() > 2 {
		t.Fatalf("height %d after the inserts and %d after the deletes, want ≥ 3 and ≤ 2", grown, tr.Height())
	}
	checkDigest(t, pool, rootHistoryGolden)
}

// checkDigest flushes pool and compares a SHA-256 of every page of its
// file past the header, free pages included, with want.
func checkDigest(t *testing.T, pool *bufferpool.Pool, want string) {
	t.Helper()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	f := pool.File()
	h := sha256.New()
	page := make([]byte, f.PageSize())
	for id := 1; id < f.NumPages(); id++ { // page 0 is the file header
		if err := f.ReadPage(pagefile.PageID(id), page); err != nil {
			t.Fatal(err)
		}
		h.Write(page)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("page file digest %s over %d pages, want %s", got, f.NumPages(), want)
	}
}

// churnVictims picks a seeded tenth of n element indexes: scattered at
// random on even rounds, one contiguous run on odd rounds — the run empties
// whole leaves, so it drives merges and rotations on the delete and splits
// on the re-insert.
func churnVictims(rng *rand.Rand, n, round int) []int {
	if round%2 == 0 {
		return rng.Perm(n)[:n/10]
	}
	lo := rng.Intn(n - n/10)
	victims := make([]int, n/10)
	for i := range victims {
		victims[i] = lo + i
	}
	return victims
}

// TestWriteAllocs pins the write path's allocations: an Insert that fits
// its leaf and a Delete that leaves the leaf above its minimum allocate
// nothing (no WAL attached, release build).
func TestWriteAllocs(t *testing.T) {
	if invariant.Enabled || invariant.Race {
		t.Skip("debug and race builds allocate in the mutation bracket")
	}
	pool := newPool(t, 512, 64)
	tr, err := New(pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	es := make([]xmldoc.Element, 2000)
	for i := range es {
		es[i] = elem(uint32(4*i + 4))
	}
	if err := tr.BulkLoad(es, 0.7); err != nil {
		t.Fatal(err)
	}
	if h := tr.Height(); h < 2 {
		t.Fatalf("height %d: no internal node to descend through", h)
	}
	e := elem(4*1000 + 1)
	allocs := testing.AllocsPerRun(100, func() {
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := tr.Delete(e.Start); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Insert+Delete allocate %.2f per run, want 0", allocs)
	}
}
