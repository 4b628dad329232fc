package elemlist

import (
	"testing"

	"xrtree/internal/bufferpool"
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// BenchmarkLeafChainScan measures one full sequential scan of a paged
// element list through a pool smaller than the list, so every iteration
// pays real page replacement.
func BenchmarkLeafChainScan(b *testing.B) {
	const elements = 50000
	es := make([]xmldoc.Element, elements)
	for i := range es {
		es[i] = xmldoc.Element{
			DocID: 1,
			Start: uint32(2*i + 1),
			End:   uint32(2*i + 2),
			Level: 1,
			Ref:   uint32(i),
		}
	}
	f := pagefile.NewMem(pagefile.Options{PageSize: pagefile.DefaultPageSize})
	b.Cleanup(func() { f.Close() })
	pool, err := bufferpool.New(f, 100)
	if err != nil {
		b.Fatal(err)
	}
	l, err := Build(pool, es)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c metrics.Counters
		it := l.Scan(&c)
		n := 0
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			n++
		}
		if err := it.Close(); err != nil {
			b.Fatal(err)
		}
		if n != elements {
			b.Fatalf("scanned %d of %d elements", n, elements)
		}
	}
}
