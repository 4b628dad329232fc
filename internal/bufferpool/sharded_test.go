package bufferpool

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
)

// TestDefaultShards pins the shard-count heuristic: exact single-LRU
// semantics for small pools, striping only once every shard keeps at least
// minFramesPerShard frames.
func TestDefaultShards(t *testing.T) {
	cases := []struct{ capacity, want int }{
		{1, 1}, {2, 1}, {16, 1}, {31, 1},
		{32, 2}, {63, 2},
		{64, 4}, {100, 4}, {127, 4},
		{128, 8}, {1024, 8}, {100000, 8},
	}
	for _, c := range cases {
		if got := defaultShards(c.capacity); got != c.want {
			t.Errorf("defaultShards(%d) = %d, want %d", c.capacity, got, c.want)
		}
	}
}

func TestNewShardedCapacityDistribution(t *testing.T) {
	f := pagefile.NewMem(pagefile.Options{PageSize: 256})
	defer f.Close()
	pool, err := newSharded(f, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", pool.Shards())
	}
	if pool.Capacity() != 10 {
		t.Fatalf("Capacity() = %d, want 10", pool.Capacity())
	}
	total := 0
	for _, s := range pool.shards {
		if s.cap < 2 || s.cap > 3 {
			t.Errorf("uneven shard capacity %d", s.cap)
		}
		total += s.cap
	}
	if total != 10 {
		t.Fatalf("shard capacities sum to %d, want 10", total)
	}

	// Shard counts are clamped so every shard has at least one frame, and
	// non-powers round up.
	pool2, err := newSharded(f, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if pool2.Shards() != 2 {
		t.Fatalf("clamped Shards() = %d, want 2", pool2.Shards())
	}
	pool3, err := newSharded(f, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pool3.Shards() != 4 {
		t.Fatalf("rounded Shards() = %d, want 4", pool3.Shards())
	}
}

func TestFetchCopy(t *testing.T) {
	f := pagefile.NewMem(pagefile.Options{PageSize: 256})
	defer f.Close()
	pool, err := New(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	id, data, err := pool.FetchNew()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = byte(i)
	}
	if err := pool.Unpin(id, true); err != nil {
		t.Fatal(err)
	}

	dst := make([]byte, 256)
	if err := pool.FetchCopy(id, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("FetchCopy returned different bytes than the frame")
	}
	if pool.PinnedCount() != 0 {
		t.Fatalf("FetchCopy left %d pages pinned", pool.PinnedCount())
	}
	if err := pool.FetchCopy(id, make([]byte, 64)); err == nil {
		t.Fatal("FetchCopy accepted a short buffer")
	}

	// A missed FetchCopy admits the page as an unpinned replacement
	// candidate and counts a miss.
	if err := pool.DropClean(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	if err := pool.FetchCopy(id, dst); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.BufferMisses != 1 || st.BufferHits != 0 {
		t.Fatalf("after cold FetchCopy: hits=%d misses=%d, want 0/1", st.BufferHits, st.BufferMisses)
	}
	if err := pool.FetchCopy(id, dst); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.BufferHits != 1 {
		t.Fatalf("after warm FetchCopy: hits=%d, want 1", st.BufferHits)
	}
	// The admitted frame must be evictable (it is on the LRU).
	for i := 0; i < 6; i++ {
		nid, _, err := pool.FetchNew()
		if err != nil {
			t.Fatalf("FetchNew %d with FetchCopy frame resident: %v", i, err)
		}
		if err := pool.Unpin(nid, true); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedConcurrentFetchUnpin hammers a multi-shard pool with
// overlapping Fetch/Unpin and FetchCopy from many goroutines; run with
// -race. Pages carry their index so cross-shard frame mixups are caught.
func TestShardedConcurrentFetchUnpin(t *testing.T) {
	f := pagefile.NewMem(pagefile.Options{PageSize: 256})
	defer f.Close()
	pool, err := newSharded(f, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", pool.Shards())
	}
	ids := make([]pagefile.PageID, 256)
	for i := range ids {
		id, data, err := pool.FetchNew()
		if err != nil {
			t.Fatal(err)
		}
		data[0] = byte(i)
		data[1] = byte(i >> 8)
		if err := pool.Unpin(id, true); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	var sink metrics.Counters
	pool.SetSink(&sink)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 256)
			for i := 0; i < 3000; i++ {
				idx := (g*37 + i*13) % len(ids)
				if i%3 == 0 {
					if err := pool.FetchCopy(ids[idx], buf); err != nil {
						t.Errorf("FetchCopy: %v", err)
						return
					}
					if int(buf[0])|int(buf[1])<<8 != idx {
						t.Errorf("page %d copy corrupted", idx)
						return
					}
					continue
				}
				data, err := pool.Fetch(ids[idx])
				if err != nil {
					t.Errorf("Fetch: %v", err)
					return
				}
				if int(data[0])|int(data[1])<<8 != idx {
					t.Errorf("page %d corrupted", idx)
					return
				}
				if err := pool.Unpin(ids[idx], false); err != nil {
					t.Errorf("Unpin: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	pool.SetSink(nil)

	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("%d pages left pinned", n)
	}
	// 8 goroutines × 3000 accesses flowed through both the pool stats and
	// the attached sink.
	st := pool.Stats()
	if st.BufferHits+st.BufferMisses < 8*3000 {
		t.Fatalf("pool counted %d accesses, want ≥ %d", st.BufferHits+st.BufferMisses, 8*3000)
	}
	if sink.BufferHits+sink.BufferMisses != 8*3000 {
		t.Fatalf("sink counted %d accesses, want %d", sink.BufferHits+sink.BufferMisses, 8*3000)
	}
}

// TestShardPoolFullError checks that pinning a whole shard reports
// ErrPoolFull for pages of that shard.
func TestShardPoolFullError(t *testing.T) {
	f := pagefile.NewMem(pagefile.Options{PageSize: 256})
	defer f.Close()
	pool, err := newSharded(f, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Allocate pages until one shard has both its frames pinned.
	pinned := map[*shard][]pagefile.PageID{}
	var full *shard
	for i := 0; i < 16 && full == nil; i++ {
		id, _, err := pool.FetchNew()
		if err != nil {
			t.Fatal(err)
		}
		s := pool.shardFor(id)
		pinned[s] = append(pinned[s], id)
		if len(pinned[s]) == s.cap {
			full = s
		}
	}
	if full == nil {
		t.Fatal("never filled a shard")
	}
	// The next page landing in the full shard must fail to admit.
	for i := 0; ; i++ {
		id, err := pool.file.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if pool.shardFor(id) != full {
			continue
		}
		if _, err := pool.Fetch(id); !errors.Is(err, ErrPoolFull) {
			t.Fatalf("Fetch into full shard: err = %v, want ErrPoolFull", err)
		}
		break
	}
}
