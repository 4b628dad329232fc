package xrtree_test

import (
	"math/rand"
	"runtime"
	"testing"

	"xrtree"
	"xrtree/internal/datagen"
	"xrtree/internal/workload"
)

// storageRow is one pool configuration's counts over the mixed
// probe/scan/join workload of TestStorage2QReadaheadBeatsLRU.
type storageRow struct {
	hits, misses, physReads, readCalls   int64
	scanEvictions, protectedHits         int64
	prefetchIssued, prefetchReads, pairs int64
}

func (r storageRow) hitRate() float64 { return float64(r.hits) / float64(r.hits+r.misses) }

func (r storageRow) coalesced() float64 { return float64(r.physReads) / float64(r.readCalls) }

// TestStorage2QReadaheadBeatsLRU runs one deterministic workload — hot
// FindAncestors/FindDescendants probes interleaved with cold leaf-chain
// scans several pool capacities long, then a descendant-selectivity
// XR-stack join sweep, three rounds — once under strict LRU and once under
// 2Q replacement with asynchronous readahead. 2Q must keep the probe
// working set resident across the scans (strictly fewer physical reads, a
// strictly higher hit rate, its scan-eviction and protected-hit accounting
// live) and readahead must merge adjacent leaf reads into vectored calls
// (more than one page per read call). Every check compares counts, never
// timings.
func TestStorage2QReadaheadBeatsLRU(t *testing.T) {
	doc, err := datagen.Nested(datagen.NestedConfig{Seed: 1, DocID: 1, Elements: 60000, MaxDepth: 12, DeepBias: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	els := doc.ElementsByTag("item")
	// The join operands split the corpus by level parity, so each side
	// gets its own leaf chain and the descendant scan competes with the
	// ancestor side's index pages.
	var baseA, baseD []xrtree.Element
	for _, e := range els {
		if e.Level%2 == 0 {
			baseA = append(baseA, e)
		} else {
			baseD = append(baseD, e)
		}
	}
	var joins []workload.Sets
	for _, pct := range []float64{0.9, 0.5, 0.1} {
		joins = append(joins, workload.VaryDescendantSelectivity(baseA, baseD, pct, 0.99, 1))
	}

	lru := runStorageWorkload(t, els, joins, xrtree.PoolLRU, false)
	twoQ := runStorageWorkload(t, els, joins, xrtree.Pool2Q, true)
	for _, r := range []struct {
		name string
		row  storageRow
	}{{"lru", lru}, {"2q+readahead", twoQ}} {
		t.Logf("%-12s hits=%d misses=%d hit-rate=%.1f%% phys-reads=%d read-calls=%d coalesce=%.2f scan-evict=%d prot-hits=%d pf-issued=%d pf-reads=%d pairs=%d",
			r.name, r.row.hits, r.row.misses, 100*r.row.hitRate(), r.row.physReads, r.row.readCalls,
			r.row.coalesced(), r.row.scanEvictions, r.row.protectedHits, r.row.prefetchIssued,
			r.row.prefetchReads, r.row.pairs)
		if r.row.pairs == 0 {
			t.Errorf("%s: joins produced no pairs", r.name)
		}
		if r.row.hits == 0 || r.row.misses == 0 || r.row.physReads == 0 {
			t.Errorf("%s: empty measurement", r.name)
		}
	}
	if lru.prefetchIssued != 0 || lru.prefetchReads != 0 {
		t.Errorf("lru: prefetch activity (%d issued, %d reads) without readahead", lru.prefetchIssued, lru.prefetchReads)
	}
	if lru.readCalls != lru.physReads {
		t.Errorf("lru: %d read calls for %d physical reads; demand misses must not coalesce", lru.readCalls, lru.physReads)
	}
	if twoQ.physReads >= lru.physReads {
		t.Errorf("2q+readahead physical reads %d, lru %d: want strictly fewer", twoQ.physReads, lru.physReads)
	}
	if twoQ.hitRate() <= lru.hitRate() {
		t.Errorf("2q+readahead hit rate %.4f, lru %.4f: want strictly higher", twoQ.hitRate(), lru.hitRate())
	}
	if twoQ.coalesced() <= 1 {
		t.Errorf("2q+readahead coalesced ratio %.3f: want > 1", twoQ.coalesced())
	}
	if twoQ.scanEvictions == 0 || twoQ.protectedHits == 0 {
		t.Errorf("2q: scan evictions %d, protected hits %d: want both > 0", twoQ.scanEvictions, twoQ.protectedHits)
	}
	if twoQ.prefetchReads == 0 {
		t.Errorf("2q: %d readahead hints issued but no page prefetched", twoQ.prefetchIssued)
	}
}

// runStorageWorkload indexes the corpus and the join operands in a fresh
// 100-frame store under one pool configuration and counts the workload.
func runStorageWorkload(t *testing.T, els []xrtree.Element, joins []workload.Sets, policy xrtree.PoolPolicy, prefetch bool) storageRow {
	t.Helper()
	store, err := xrtree.NewMemStore(xrtree.StoreOptions{BufferPages: 100, PoolPolicy: policy, Prefetch: prefetch})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	main, err := store.IndexElements(els, xrtree.IndexOptions{SkipBTree: true})
	if err != nil {
		t.Fatal(err)
	}
	xr, err := main.XRTree()
	if err != nil {
		t.Fatal(err)
	}
	list, err := main.List()
	if err != nil {
		t.Fatal(err)
	}
	type operands struct{ a, d *xrtree.ElementSet }
	var ops []operands
	only := xrtree.IndexOptions{SkipList: true, SkipBTree: true}
	for _, sets := range joins {
		a, err := store.IndexElements(sets.A, only)
		if err != nil {
			t.Fatal(err)
		}
		d, err := store.IndexElements(sets.D, only)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, operands{a, d})
	}
	if err := store.DropCache(); err != nil {
		t.Fatal(err)
	}

	// Twelve fixed probe keys, cycled: their index paths and leaf runs are
	// the hot working set. One probe cycle drags more scan pages through
	// the pool than it has frames, so LRU evicts every probe path before
	// its next use while 2Q keeps it protected.
	const span, stride = 8192, 1300
	rng := rand.New(rand.NewSource(1))
	maxPos := els[len(els)-1].End
	hot := make([]uint32, 12)
	for i := range hot {
		hot[i] = uint32(rng.Intn(int(maxPos-span))) + 1
	}
	var row storageRow
	probe := 0
	poolBefore, fileBefore := store.PoolStats(), store.FileStats()
	for round := 0; round < 3; round++ {
		var st xrtree.Stats
		it := list.Scan(&st)
		for n := 0; ; n++ {
			if _, ok := it.Next(); !ok {
				break
			}
			if n%64 == 0 {
				runtime.Gosched()
			}
			if n%stride == 0 {
				key := hot[probe%len(hot)]
				probe++
				if _, err := xr.FindAncestors(key, 0, &st); err != nil {
					it.Close()
					t.Fatal(err)
				}
				if _, err := xr.FindDescendants(key, key+span, &st); err != nil {
					it.Close()
					t.Fatal(err)
				}
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			var js xrtree.Stats
			if err := xrtree.Join(xrtree.AlgXRStack, xrtree.AncestorDescendant, op.a, op.d, nil, &js); err != nil {
				t.Fatal(err)
			}
			row.pairs += js.OutputPairs
		}
	}
	pool, file := store.PoolStats(), store.FileStats()
	row.hits = pool.BufferHits - poolBefore.BufferHits
	row.misses = pool.BufferMisses - poolBefore.BufferMisses
	row.scanEvictions = pool.ScanEvictions - poolBefore.ScanEvictions
	row.protectedHits = pool.ProtectedHits - poolBefore.ProtectedHits
	row.prefetchIssued = pool.PrefetchIssued - poolBefore.PrefetchIssued
	row.prefetchReads = pool.PrefetchReads - poolBefore.PrefetchReads
	row.physReads = file.PhysicalReads - fileBefore.PhysicalReads
	row.readCalls = file.ReadCalls - fileBefore.ReadCalls
	return row
}
