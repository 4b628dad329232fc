package bufferpool

import (
	"errors"
	"testing"

	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
)

func newPool(t *testing.T, frames int) (*Pool, *pagefile.File) {
	t.Helper()
	f := pagefile.NewMem(pagefile.Options{PageSize: 256})
	t.Cleanup(func() { f.Close() })
	p, err := New(f, frames)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p, f
}

func TestFetchNewAndReadBack(t *testing.T) {
	p, _ := newPool(t, 4)
	id, data, err := p.FetchNew()
	if err != nil {
		t.Fatalf("FetchNew: %v", err)
	}
	data[0] = 0xAA
	data[255] = 0xBB
	if err := p.Unpin(id, true); err != nil {
		t.Fatalf("Unpin: %v", err)
	}
	got, err := p.Fetch(id)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if got[0] != 0xAA || got[255] != 0xBB {
		t.Error("page contents lost between FetchNew and Fetch")
	}
	if err := p.Unpin(id, false); err != nil {
		t.Fatalf("Unpin: %v", err)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	p, f := newPool(t, 2)
	// Create three pages; with capacity 2 the first must be evicted.
	ids := make([]pagefile.PageID, 3)
	for i := range ids {
		id, data, err := p.FetchNew()
		if err != nil {
			t.Fatalf("FetchNew %d: %v", i, err)
		}
		data[0] = byte(i + 1)
		if err := p.Unpin(id, true); err != nil {
			t.Fatalf("Unpin: %v", err)
		}
		ids[i] = id
	}
	// Page ids[0] should have been evicted and written back.
	buf := make([]byte, 256)
	if err := f.ReadPage(ids[0], buf); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if buf[0] != 1 {
		t.Errorf("evicted page byte = %d, want 1 (dirty write-back)", buf[0])
	}
	// Fetching it again must still see the data (a miss).
	got, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if got[0] != 1 {
		t.Errorf("refetched byte = %d, want 1", got[0])
	}
	p.Unpin(ids[0], false)
}

func TestPinnedPagesAreNotEvicted(t *testing.T) {
	p, _ := newPool(t, 2)
	a, _, err := p.FetchNew()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := p.FetchNew()
	if err != nil {
		t.Fatal(err)
	}
	// Both pinned; a third fetch must fail with ErrPoolFull.
	if _, _, err := p.FetchNew(); !errors.Is(err, ErrPoolFull) {
		t.Errorf("FetchNew with all pinned err = %v, want ErrPoolFull", err)
	}
	p.Unpin(a, true)
	p.Unpin(b, true)
	if _, _, err := p.FetchNew(); err != nil {
		t.Errorf("FetchNew after unpin: %v", err)
	}
}

func TestLRUEvictsLeastRecentlyUnpinned(t *testing.T) {
	p, _ := newPool(t, 2)
	a, _, _ := p.FetchNew()
	p.Unpin(a, true)
	b, _, _ := p.FetchNew()
	p.Unpin(b, true)
	// Touch a so b becomes LRU.
	if _, err := p.Fetch(a); err != nil {
		t.Fatal(err)
	}
	p.Unpin(a, false)
	p.ResetStats()
	// A new page should evict b, not a.
	c, _, _ := p.FetchNew()
	p.Unpin(c, true)
	if _, err := p.Fetch(a); err != nil {
		t.Fatal(err)
	}
	p.Unpin(a, false)
	st := p.Stats()
	if st.BufferMisses != 0 {
		t.Errorf("Fetch(a) missed (misses=%d); LRU should have evicted b", st.BufferMisses)
	}
}

func TestHitMissCounting(t *testing.T) {
	p, _ := newPool(t, 4)
	var sink metrics.Counters
	p.SetSink(&sink)
	id, _, _ := p.FetchNew()
	p.Unpin(id, true)
	p.ResetStats()
	sink.Reset()

	if _, err := p.Fetch(id); err != nil { // hit
		t.Fatal(err)
	}
	p.Unpin(id, false)
	if err := p.DropClean(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fetch(id); err != nil { // miss
		t.Fatal(err)
	}
	p.Unpin(id, false)

	st := p.Stats()
	if st.BufferHits != 1 || st.BufferMisses != 1 {
		t.Errorf("pool stats hits=%d misses=%d, want 1/1", st.BufferHits, st.BufferMisses)
	}
	if sink.BufferHits != 1 || sink.BufferMisses != 1 {
		t.Errorf("sink hits=%d misses=%d, want 1/1", sink.BufferHits, sink.BufferMisses)
	}
}

func TestUnpinErrors(t *testing.T) {
	p, _ := newPool(t, 2)
	if err := p.Unpin(42, false); !errors.Is(err, ErrBadUnpin) {
		t.Errorf("Unpin of unknown page err = %v, want ErrBadUnpin", err)
	}
	id, _, _ := p.FetchNew()
	p.Unpin(id, true)
	if err := p.Unpin(id, false); !errors.Is(err, ErrNotPinned) {
		t.Errorf("double Unpin err = %v, want ErrNotPinned", err)
	}
}

func TestNestedPins(t *testing.T) {
	p, _ := newPool(t, 2)
	id, _, _ := p.FetchNew()
	if _, err := p.Fetch(id); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(id, false); err != nil {
		t.Fatal(err)
	}
	if got := p.PinnedCount(); got != 1 {
		t.Errorf("PinnedCount = %d, want 1 (still pinned once)", got)
	}
	if err := p.Unpin(id, true); err != nil {
		t.Fatal(err)
	}
	if got := p.PinnedCount(); got != 0 {
		t.Errorf("PinnedCount = %d, want 0", got)
	}
}

func TestDiscardFreesPage(t *testing.T) {
	p, f := newPool(t, 4)
	id, _, _ := p.FetchNew()
	if err := p.Discard(id); err != nil {
		t.Fatalf("Discard: %v", err)
	}
	// The freed page should be reused by the next allocation.
	id2, _, err := p.FetchNew()
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Errorf("FetchNew after Discard = %d, want reuse of %d", id2, id)
	}
	p.Unpin(id2, true)
	_ = f
}

func TestFlushAllPersists(t *testing.T) {
	p, f := newPool(t, 4)
	id, data, _ := p.FetchNew()
	data[7] = 0x7E
	p.Unpin(id, true)
	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	buf := make([]byte, 256)
	if err := f.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[7] != 0x7E {
		t.Error("FlushAll did not write dirty page back")
	}
}

func TestZeroCapacityRejected(t *testing.T) {
	f := pagefile.NewMem(pagefile.Options{PageSize: 256})
	defer f.Close()
	if _, err := New(f, 0); !errors.Is(err, ErrZeroFrames) {
		t.Errorf("New(0) err = %v, want ErrZeroFrames", err)
	}
}

func TestManyPagesThroughSmallPool(t *testing.T) {
	// Write 100 pages through a 3-frame pool, then verify all contents.
	p, _ := newPool(t, 3)
	ids := make([]pagefile.PageID, 100)
	for i := range ids {
		id, data, err := p.FetchNew()
		if err != nil {
			t.Fatalf("FetchNew %d: %v", i, err)
		}
		data[0] = byte(i)
		data[1] = byte(i >> 8)
		p.Unpin(id, true)
		ids[i] = id
	}
	for i, id := range ids {
		data, err := p.Fetch(id)
		if err != nil {
			t.Fatalf("Fetch %d: %v", i, err)
		}
		if data[0] != byte(i) || data[1] != byte(i>>8) {
			t.Fatalf("page %d corrupted: got %d,%d", i, data[0], data[1])
		}
		p.Unpin(id, false)
	}
}

// TestEvictionCounting verifies PageEvictions in both the pool stats and an
// attached sink when the working set exceeds the pool.
func TestEvictionCounting(t *testing.T) {
	f := pagefile.NewMem(pagefile.Options{PageSize: 256})
	defer f.Close()
	pool, err := New(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]pagefile.PageID, 6)
	for i := range ids {
		id, _, err := pool.FetchNew()
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Unpin(id, true); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	pool.ResetStats()
	var sink metrics.Counters
	pool.SetSink(&sink)
	for _, id := range ids { // working set 6 ≫ 2 frames: every fetch evicts
		if _, err := pool.Fetch(id); err != nil {
			t.Fatal(err)
		}
		if err := pool.Unpin(id, false); err != nil {
			t.Fatal(err)
		}
	}
	pool.SetSink(nil)
	st := pool.Stats()
	if st.PageEvictions == 0 {
		t.Error("no evictions counted")
	}
	if sink.PageEvictions != st.PageEvictions {
		t.Errorf("sink evictions %d != pool %d", sink.PageEvictions, st.PageEvictions)
	}
}

// TestDropCleanReusesFrames checks that the misses after DropClean reuse
// the dropped frames instead of allocating new ones, and that a reused
// frame reads the page it now holds.
func TestDropCleanReusesFrames(t *testing.T) {
	p, _ := newPool(t, 8)
	ids := make([]pagefile.PageID, 4)
	for i := range ids {
		id, data, err := p.FetchNew()
		if err != nil {
			t.Fatal(err)
		}
		data[0] = byte(i + 1)
		if err := p.Unpin(id, true); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		if e := p.DropClean(); e != nil {
			err = e
		}
		for i, id := range ids {
			data, e := p.Fetch(id)
			if e != nil {
				err = e
				return
			}
			if data[0] != byte(i+1) {
				t.Errorf("page %d reads %d after DropClean, want %d", id, data[0], i+1)
			}
			if e := p.Unpin(id, false); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("DropClean then %d fetches: %v allocs per run, want 0", len(ids), allocs)
	}
	if s := p.Stats(); s.BufferMisses < int64(len(ids)) {
		t.Errorf("%d misses, want the fetches after DropClean to miss", s.BufferMisses)
	}
}
