package join

import (
	"math/rand"
	"strconv"
	"testing"

	"xrtree/internal/btree"
	"xrtree/internal/bufferpool"
	"xrtree/internal/core"
	"xrtree/internal/elemlist"
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// benchPool returns a 100-frame pool over a fresh in-memory page file.
func benchPool(b *testing.B) *bufferpool.Pool {
	f := pagefile.NewMem(pagefile.Options{PageSize: pagefile.DefaultPageSize})
	b.Cleanup(func() { f.Close() })
	pool, err := bufferpool.New(f, 100)
	if err != nil {
		b.Fatal(err)
	}
	return pool
}

// benchJoin times one join algorithm end to end.
func benchJoin(b *testing.B, run func(emit EmitFunc, c *metrics.Counters) error) {
	emit := func(a, d xmldoc.Element) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c metrics.Counters
		if err := run(emit, &c); err != nil {
			b.Fatal(err)
		}
		if c.OutputPairs == 0 {
			b.Fatal("join produced no pairs")
		}
	}
}

// BenchmarkXRStackJoin measures a full XR-stack join over two XR-trees
// through a small pool, so index descents, stab-list probes, and leaf-chain
// scans all pay real buffer replacement. The ad case joins ancestor-
// descendant, the pc case parent-child.
func BenchmarkXRStackJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	as, ds := genDoc(rng, 2000, 10000, 8)
	pool := benchPool(b)
	buildXR := func(es []xmldoc.Element) *core.Tree {
		t, err := core.New(pool, es[0].DocID, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := t.BulkLoad(es, 1.0); err != nil {
			b.Fatal(err)
		}
		return t
	}
	xa := XRTreeSource{T: buildXR(as)}
	xd := XRTreeSource{T: buildXR(ds)}
	for _, tc := range []struct {
		name string
		mode Mode
	}{{"ad", AncestorDescendant}, {"pc", ParentChild}} {
		b.Run(tc.name, func(b *testing.B) {
			benchJoin(b, func(emit EmitFunc, c *metrics.Counters) error {
				return XRStack(tc.mode, xa, xd, emit, c)
			})
		})
	}
}

// BenchmarkBPlusJoin is BenchmarkXRStackJoin's input joined by the B+
// algorithm over two B+-trees.
func BenchmarkBPlusJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	as, ds := genDoc(rng, 2000, 10000, 8)
	pool := benchPool(b)
	buildBT := func(es []xmldoc.Element) *btree.Tree {
		t, err := btree.New(pool, es[0].DocID)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.BulkLoad(es, 1.0); err != nil {
			b.Fatal(err)
		}
		return t
	}
	ba := BTreeSource{T: buildBT(as)}
	bd := BTreeSource{T: buildBT(ds)}
	benchJoin(b, func(emit EmitFunc, c *metrics.Counters) error {
		return BPlus(AncestorDescendant, ba, bd, emit, c)
	})
}

// BenchmarkStackTreeDescJoin is BenchmarkXRStackJoin's input joined by the
// no-index algorithm over two paged element lists, which steps over every
// element of both.
func BenchmarkStackTreeDescJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	as, ds := genDoc(rng, 2000, 10000, 8)
	pool := benchPool(b)
	buildList := func(es []xmldoc.Element) ListSource {
		l, err := elemlist.Build(pool, es)
		if err != nil {
			b.Fatal(err)
		}
		return ListSource{L: l}
	}
	la, ld := buildList(as), buildList(ds)
	benchJoin(b, func(emit EmitFunc, c *metrics.Counters) error {
		return StackTreeDesc(AncestorDescendant, la, ld, emit, c)
	})
}

// spinTask is a synthetic partition: it emits pairs pairs, spending work
// rounds of xorshift on each, so dense and output-light runs differ only
// in the ratio of join work to output.
func spinTask(doc uint32, pairs, work int) Task {
	return Task{DocID: doc, Run: func(emit EmitFunc, c *metrics.Counters) error {
		x := uint32(doc)*2654435761 | 1
		for i := 0; i < pairs; i++ {
			for r := 0; r < work; r++ {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
			}
			emit(xmldoc.Element{DocID: doc, Start: uint32(i)}, xmldoc.Element{DocID: doc, Start: uint32(i) + 1, End: x})
			c.OutputPairs++
		}
		return nil
	}}
}

// BenchmarkParallel measures the parallel driver as a layer: eight
// synthetic partitions at one and two workers. The dense case emits four
// chunks per partition at a few nanoseconds of work per pair (the
// employee//name shape); the sparse case emits 64 pairs after
// microseconds of work each, so its output never fills a chunk.
func BenchmarkParallel(b *testing.B) {
	for _, tc := range []struct {
		name        string
		pairs, work int
	}{{"dense", 4 * emitChunkPairs, 8}, {"sparse", 64, 2000}} {
		tasks := make([]Task, 8)
		for i := range tasks {
			tasks[i] = spinTask(uint32(i+1), tc.pairs, tc.work)
		}
		for _, workers := range []int{1, 2} {
			b.Run(tc.name+"/workers="+strconv.Itoa(workers), func(b *testing.B) {
				var sink uint64
				emit := func(a, d xmldoc.Element) { sink += uint64(d.End) }
				b.ReportAllocs()
				var c metrics.Counters
				for i := 0; i < b.N; i++ {
					c = metrics.Counters{}
					if err := Parallel(tasks, Options{Workers: workers}, emit, &c); err != nil {
						b.Fatal(err)
					}
				}
				if want := int64(len(tasks) * tc.pairs); c.OutputPairs != want {
					b.Fatalf("%d pairs, want %d", c.OutputPairs, want)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*c.OutputPairs), "ns/pair")
				benchSink = sink
			})
		}
	}
}

var benchSink uint64
