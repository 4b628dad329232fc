package core

import (
	"math/rand"
	"testing"

	"xrtree/internal/bufferpool"
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// BenchmarkStabInsertDelete measures the stab-list upkeep of Algorithms 1
// and 2 (§4): each op deletes an element that lives in a stab list, which
// unhomes it (D1), and inserts it again, which homes it at the highest
// stabbing node (I1). The elements are a bulk-loaded nested forest on 1 KiB
// pages under a pool that holds the whole tree, so pages/op counts page
// accesses (pool hits plus misses), not I/O.
func BenchmarkStabInsertDelete(b *testing.B) {
	f := pagefile.NewMem(pagefile.Options{PageSize: 1024})
	b.Cleanup(func() { f.Close() })
	pool, err := bufferpool.New(f, 4096)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := New(pool, 1, Options{})
	if err != nil {
		b.Fatal(err)
	}
	es := genNested(rand.New(rand.NewSource(1)), 20000, 12)
	if err := tr.BulkLoad(es, 1.0); err != nil {
		b.Fatal(err)
	}
	// Keep the elements whose delete shrinks the stab lists.
	var homed []xmldoc.Element
	for _, e := range es {
		before, _ := tr.StabStats()
		if err := tr.Delete(e.Start); err != nil {
			b.Fatal(err)
		}
		if after, _ := tr.StabStats(); after < before {
			homed = append(homed, e)
		}
		if err := tr.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
	if len(homed) == 0 {
		b.Fatal("no element lives in a stab list")
	}

	b.ReportAllocs()
	start := pool.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := homed[i%len(homed)]
		if err := tr.Delete(e.Start); err != nil {
			b.Fatal(err)
		}
		if err := tr.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	end := pool.Stats()
	pages := end.BufferHits + end.BufferMisses - start.BufferHits - start.BufferMisses
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
}

// BenchmarkFindAncestors measures Algorithm 4's probe (Theorem 4's
// O(log_F N + R)) on a bulk-loaded nested forest on 1 KiB pages under a
// pool that holds the whole tree: one FindAncestors per op at a random
// position, pages/op counting the node, leaf and stab pages it visits.
func BenchmarkFindAncestors(b *testing.B) {
	f := pagefile.NewMem(pagefile.Options{PageSize: 1024})
	b.Cleanup(func() { f.Close() })
	pool, err := bufferpool.New(f, 4096)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := New(pool, 1, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	es := genNested(rng, 20000, 12)
	if err := tr.BulkLoad(es, 1.0); err != nil {
		b.Fatal(err)
	}
	probes := make([]uint32, 4096)
	for i := range probes {
		probes[i] = es[rng.Intn(len(es))].Start + 1
	}

	var c metrics.Counters
	b.ReportAllocs()
	n := 0
	for b.Loop() {
		if ancestorsSink, err = tr.FindAncestors(probes[n%len(probes)], 0, &c); err != nil {
			b.Fatal(err)
		}
		n++
	}
	pages := c.IndexNodeReads + c.LeafReads + c.StabPageReads
	b.ReportMetric(float64(pages)/float64(n), "pages/op")
}

// BenchmarkFindDescendants measures Algorithm 3's range probe on the same
// forest as BenchmarkFindAncestors: one FindDescendants per op over an
// element with 8..48 descendants, so most results fit findDescendantsCap
// and some grow past it. results/op is the mean result size.
func BenchmarkFindDescendants(b *testing.B) {
	f := pagefile.NewMem(pagefile.Options{PageSize: 1024})
	b.Cleanup(func() { f.Close() })
	pool, err := bufferpool.New(f, 4096)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := New(pool, 1, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	es := genNested(rng, 20000, 12)
	if err := tr.BulkLoad(es, 1.0); err != nil {
		b.Fatal(err)
	}
	var hosts []xmldoc.Element
	for _, e := range es {
		des, err := tr.FindDescendants(e.Start, e.End, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(des) >= 8 && len(des) <= 48 {
			hosts = append(hosts, e)
		}
	}

	var c metrics.Counters
	b.ReportAllocs()
	n, results := 0, 0
	for b.Loop() {
		h := hosts[n%len(hosts)]
		if ancestorsSink, err = tr.FindDescendants(h.Start, h.End, &c); err != nil {
			b.Fatal(err)
		}
		results += len(ancestorsSink)
		n++
	}
	b.ReportMetric(float64(results)/float64(n), "results/op")
}
