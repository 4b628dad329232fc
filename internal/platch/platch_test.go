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
				// A different page must be independent even when it sits
				// at the same offset of another chunk.
				tab.Lock(7 + chunkSize)
				tab.Unlock(7 + chunkSize)
			}
		}()
	}
	wg.Wait()
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

// TestGrowth latches ids on both sides of chunk boundaries from two
// writers while a reader grows the directory from its far end, so -race
// sees every copy-on-write publication raced against lookups. A latch
// handed out before the copies must be the one handed out after them, and
// an id past the dense range must leave the directory alone.
func TestGrowth(t *testing.T) {
	tab := NewTable()
	const chunks = 64
	first := tab.latch(0)                          // handed out before every directory copy
	held := make([]atomic.Int32, chunks*chunkSize) // holders per page
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := chunks - 1; c >= 0; c-- {
			id := pagefile.PageID(c*chunkSize + chunkSize/2)
			tab.RLock(id)
			tab.RUnlock(id)
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 1; c < chunks; c++ {
				for _, id := range []pagefile.PageID{pagefile.PageID(c*chunkSize - 1), pagefile.PageID(c * chunkSize)} {
					tab.Lock(id)
					if held[id].Add(1) > 1 {
						t.Errorf("page %d: exclusive latch held twice", id)
					}
					held[id].Add(-1)
					tab.Unlock(id)
				}
			}
		}()
	}
	wg.Wait()
	if tab.latch(0) != first {
		t.Fatal("page 0's latch moved when the directory grew")
	}
	if n := len(*tab.dir.Load()); n != chunks {
		t.Fatalf("directory has %d chunks, want %d", n, chunks)
	}
	far := pagefile.PageID(maxChunks * chunkSize)
	tab.Lock(far)
	tab.LockRight(far + 1)
	tab.Unlock(far + 1)
	tab.Unlock(far)
	if n := len(*tab.dir.Load()); n != chunks {
		t.Fatalf("an id past the dense range grew the directory to %d chunks", n)
	}
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
