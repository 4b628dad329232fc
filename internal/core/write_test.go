package core

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
// produces. It pins the write path's on-disk layout — page bytes, stab
// chains, separators, split and merge points, free-page reuse order — so a
// refactor of the write side must reproduce it exactly.
const writeHistoryGolden = "012c0c15f8787d54493066af2ea3df315d16fef591d9f6aad1288167ad48506b"

// TestWriteHistoryGolden runs a fixed write history on 512-byte pages over
// one nested element forest — a seeded bulk load of half of it at fill
// 0.7, then ten rounds of seeded 10 % delete plus re-insert churn (see
// churnVictims), then inserts of the other half, which split internal
// nodes — checking Definition 4 along the way, and compares a digest of
// the page file with writeHistoryGolden.
func TestWriteHistoryGolden(t *testing.T) {
	f := pagefile.NewMem(pagefile.Options{PageSize: 512})
	defer f.Close()
	pool, err := bufferpool.New(f, 64)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(pool, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 4000
	all := genNested(rng, 2*n, 10)
	perm := rng.Perm(2 * n)
	es := make([]xmldoc.Element, n)
	for i, p := range perm[:n] {
		es[i] = all[p]
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
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	for _, p := range perm[n:] {
		if err := tr.Insert(all[p]); err != nil {
			t.Fatalf("growth: Insert(%v): %v", all[p], err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("after growth: %v", err)
	}
	checkDigest(t, pool, writeHistoryGolden)
}

// rootHistoryGolden is the SHA-256 of the page file TestRootHistoryGolden
// produces.
const rootHistoryGolden = "1e20833d4a5e3db1468d69c95732538c508f8ca810c1c3e17b5676c5df4ee614"

// TestRootHistoryGolden covers what TestWriteHistoryGolden's history does
// not reach, on 256-byte pages under a 64-frame pool: 3 000 seeded inserts
// grow the tree from its root leaf through root splits, and 2 950 seeded
// deletes shrink it again through cascading merges and root shrinks. The
// small pool evicts throughout, so the stale bytes recycled pages carry
// also pin the order in which the write path touches pages.
func TestRootHistoryGolden(t *testing.T) {
	if invariant.Enabled {
		t.Skip("the debug build's sampled invariant walks touch pages too, which moves evictions")
	}
	f := pagefile.NewMem(pagefile.Options{PageSize: 256})
	defer f.Close()
	pool, err := bufferpool.New(f, 64)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(pool, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	es := genNested(rng, 3000, 12)
	for _, i := range rng.Perm(len(es)) {
		if err := tr.Insert(es[i]); err != nil {
			t.Fatal(err)
		}
	}
	grown := tr.Height()
	for _, i := range rng.Perm(len(es))[:2950] {
		if err := tr.Delete(es[i].Start); err != nil {
			t.Fatal(err)
		}
	}
	if grown < 4 || tr.Height() > 2 {
		t.Fatalf("height %d after the inserts and %d after the deletes, want ≥ 4 and ≤ 2", grown, tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
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
// its leaf and joins no stab list, and a Delete that leaves the leaf above
// its minimum, allocate nothing (no WAL attached).
func TestWriteAllocs(t *testing.T) {
	if invariant.Enabled || invariant.Race {
		t.Skip("debug and race builds allocate in the mutation bracket")
	}
	pool := newPool(t, 512, 64)
	tr, err := New(pool, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	es := make([]xmldoc.Element, 2000)
	for i := range es {
		s := uint32(4*i + 4)
		es[i] = xmldoc.Element{DocID: 1, Start: s, End: s + 2, Level: 1}
	}
	if err := tr.BulkLoad(es, 0.7); err != nil {
		t.Fatal(err)
	}
	if h := tr.Height(); h < 2 {
		t.Fatalf("height %d: no internal node to descend through", h)
	}
	e := xmldoc.Element{DocID: 1, Start: 4*1000 + 1, End: 4*1000 + 2, Level: 2}
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
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
