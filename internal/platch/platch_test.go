package platch

import (
	"sync"
	"sync/atomic"
	"testing"

	"xrtree/internal/pagefile"
)

// TestExclusion verifies writer/writer and writer/reader exclusion per
// page, and that distinct pages do not exclude each other.
func TestExclusion(t *testing.T) {
	tab := NewTable()
	var counter int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tab.Lock(7)
				c := atomic.AddInt64(&counter, 1)
				if c != 1 {
					t.Errorf("exclusive latch held by %d goroutines", c)
				}
				atomic.AddInt64(&counter, -1)
				tab.Unlock(7)
				// A different page must be independent even when it maps
				// to the same shard (7 + latchShards).
				tab.Lock(7 + latchShards)
				tab.Unlock(7 + latchShards)
			}
		}()
	}
	wg.Wait()
	checkQuiesced(t, tab)
}

// checkQuiesced asserts the retention invariant on an idle table: no
// entry is referenced, and each shard holds at most coldCap resident
// entries (every cooled entry has a cold-list marker, and the list is
// pruned to coldCap on overflow).
func checkQuiesced(t *testing.T, tab *Table) {
	t.Helper()
	for i := range tab.shards {
		s := &tab.shards[i]
		if n := len(s.m); n > coldCap {
			t.Fatalf("shard %d retains %d latch entries after quiesce, cap %d", i, n, coldCap)
		}
		for id, e := range s.m {
			if e.refs != 0 {
				t.Fatalf("shard %d page %d: %d refs after quiesce", i, id, e.refs)
			}
		}
	}
}

// TestSharedReaders verifies multiple readers hold one page concurrently.
func TestSharedReaders(t *testing.T) {
	tab := NewTable()
	const readers = 4
	var inside sync.WaitGroup
	inside.Add(readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab.RLock(3)
			inside.Done()
			inside.Wait() // all readers inside simultaneously
			tab.RUnlock(3)
		}()
	}
	wg.Wait()
}

// TestColdRetention verifies that a page latched repeatedly keeps its
// entry resident between acquisitions (no map churn on the hot path)
// and that a scan over many distinct pages stays within the retention
// bound instead of growing the table.
func TestColdRetention(t *testing.T) {
	tab := NewTable()
	id := pagefile.PageID(9)
	tab.Lock(id)
	e := tab.shard(id).m[id]
	tab.Unlock(id)
	if got := tab.shard(id).m[id]; got != e {
		t.Fatal("hot entry was not retained across unlock")
	}
	// Touch many pages in one shard; eviction must bound residency.
	for i := 0; i < 10*coldCap; i++ {
		p := pagefile.PageID(uint64(i) * latchShards)
		tab.RLock(p)
		tab.RUnlock(p)
	}
	checkQuiesced(t, tab)
}

// TestCoupling verifies the left-to-right coupling pattern (hold left,
// LockRight the sibling) interleaves safely with single-latch writers.
func TestCoupling(t *testing.T) {
	tab := NewTable()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tab.Lock(1)
				tab.LockRight(2)
				tab.Unlock(2)
				tab.Unlock(1)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tab.Lock(2)
				tab.Unlock(2)
			}
		}()
	}
	wg.Wait()
}

func BenchmarkRLockRUnlock(b *testing.B) {
	tab := NewTable()
	b.RunParallel(func(pb *testing.PB) {
		id := pagefile.PageID(5)
		for pb.Next() {
			tab.RLock(id)
			tab.RUnlock(id)
		}
	})
}
