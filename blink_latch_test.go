package xrtree_test

import (
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xrtree"
	"xrtree/internal/datagen"
	"xrtree/internal/invariant"
)

// TestBlinkReadersBeatCoarseLatch guards the B-link write-concurrency
// claim: readers keep flowing while writers split pages and wait for their
// group-committed fsync. One WAL-backed XR-tree takes FindAncestors probes
// from four readers while writers ingest; each writer count runs once with
// a test-level RWMutex around every operation (the coarse per-tree latch
// the B-link protocol replaced, held across the commit) and once on the
// tree's own per-page latching. Reader throughput, sampled only while
// ingest is in flight, must be higher without the coarse latch: at least
// twice as high, so a tree that quietly serializes readers behind writers
// again (a ratio near one) fails every run, not every other. The race
// detector slows readers far more than the commit waits, which shrinks the
// margin to 1.5–2.5×, so under it the check is only that B-link wins. Both
// cells run on the same machine in the same test, so the check is a ratio,
// not an absolute timing.
func TestBlinkReadersBeatCoarseLatch(t *testing.T) {
	minGain := 2.0
	if invariant.Race {
		minGain = 1
	}
	doc, err := datagen.Nested(datagen.NestedConfig{Seed: 1, DocID: 1, Elements: blinkElements, MaxDepth: 12, DeepBias: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	els := doc.ElementsByTag("item")
	for _, writers := range []int{1, 4} {
		coarse := readerThroughput(t, els, writers, true)
		blink := readerThroughput(t, els, writers, false)
		t.Logf("%d writers: reader ops/s coarse=%.0f blink=%.0f (%.1f×)", writers, coarse, blink, blink/coarse)
		if blink <= minGain*coarse {
			t.Errorf("%d writers: B-link reader throughput %.0f/s is not above %.0f× the coarse latch's %.0f/s",
				writers, blink, minGain, coarse)
		}
	}
}

const (
	blinkElements         = 10000
	blinkReaders          = 4
	blinkInsertsPerWriter = 300
)

// readerThroughput measures reader operations per second while writers
// ingest into a fresh WAL-backed store holding els. With coarse set, every
// insert takes the write side of one RWMutex and every probe its read side.
func readerThroughput(t *testing.T, els []xrtree.Element, writers int, coarse bool) float64 {
	t.Helper()
	store, err := xrtree.CreateStore(filepath.Join(t.TempDir(), "mixed.xrt"), xrtree.StoreOptions{BufferPages: 512, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	set, err := store.IndexElements(els, xrtree.IndexOptions{SkipList: true, SkipBTree: true})
	if err != nil {
		t.Fatal(err)
	}
	xr, err := set.XRTree()
	if err != nil {
		t.Fatal(err)
	}
	var gate sync.RWMutex
	lock := func(read bool) func() {
		switch {
		case !coarse:
			return func() {}
		case read:
			gate.RLock()
			return gate.RUnlock
		default:
			gate.Lock()
			return gate.Unlock
		}
	}

	// Writers insert flat elements above the corpus, each in a private
	// range: no key collisions, but every insert still descends (and
	// splits) the upper levels the readers walk.
	base := els[len(els)-1].End + 2
	var ingesting atomic.Int64
	ingesting.Store(int64(writers))
	var reads atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, writers+blinkReaders)
	start := time.Now()
	var window time.Duration
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if ingesting.Add(-1) == 0 {
					window = time.Since(start)
				}
			}()
			first := base + uint32(w*blinkInsertsPerWriter*4)
			for i := 0; i < blinkInsertsPerWriter; i++ {
				s := first + uint32(i*4)
				unlock := lock(false)
				err := xr.Insert(xrtree.Element{DocID: 1, Start: s, End: s + 2, Level: 1})
				unlock()
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for g := 0; g < blinkReaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1 + g*101)))
			var st xrtree.Stats
			for ingesting.Load() > 0 {
				unlock := lock(true)
				_, err := xr.FindAncestors(els[rng.Intn(len(els))].Start, 0, &st)
				unlock()
				if err != nil {
					errs <- err
					return
				}
				reads.Add(1)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if reads.Load() == 0 {
		t.Fatalf("coarse=%v, %d writers: no reader samples during ingest", coarse, writers)
	}
	return float64(reads.Load()) / window.Seconds()
}
