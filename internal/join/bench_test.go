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

// benchPools are the two pools every join benchmark runs over: the
// paper's 100 frames emptied before every join, so each page the join
// reads is a miss, and a warm pool that holds every page of the inputs,
// where each fetch is a hit and the time is the CPU spent per element and
// per pair.
var benchPools = []struct {
	name   string
	frames int
	cold   bool
}{{"cold", 100, true}, {"warm", 1024, false}}

// benchPool returns a pool of the given frames over a fresh in-memory page
// file.
func benchPool(b *testing.B, frames int) *bufferpool.Pool {
	f := pagefile.NewMem(pagefile.Options{PageSize: pagefile.DefaultPageSize})
	b.Cleanup(func() { f.Close() })
	pool, err := bufferpool.New(f, frames)
	if err != nil {
		b.Fatal(err)
	}
	return pool
}

// benchInput returns the element sets every join benchmark joins.
func benchInput() (as, ds []xmldoc.Element) {
	return genDoc(rand.New(rand.NewSource(7)), 2000, 10000, 8)
}

// benchJoin times one join algorithm end to end on each of benchPools,
// building its inputs into the pool with build first. Besides ns/op and
// allocs/op it reports pages/op (index, leaf and stab pages read) and
// ns/pair.
func benchJoin[S any](b *testing.B, build func(b *testing.B, pool *bufferpool.Pool, es []xmldoc.Element) S, run func(a, d S, emit EmitFunc, c *metrics.Counters) error) {
	as, ds := benchInput()
	for _, p := range benchPools {
		pool := benchPool(b, p.frames)
		a, d := build(b, pool, as), build(b, pool, ds)
		b.Run(p.name, func(b *testing.B) {
			emit := func(a, d xmldoc.Element) {}
			var pages, pairs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p.cold {
					b.StopTimer()
					if err := pool.DropClean(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				var c metrics.Counters
				if err := run(a, d, emit, &c); err != nil {
					b.Fatal(err)
				}
				if c.OutputPairs == 0 {
					b.Fatal("join produced no pairs")
				}
				pages += c.IndexNodeReads + c.LeafReads + c.StabPageReads
				pairs += c.OutputPairs
			}
			b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
		})
	}
}

// BenchmarkXRStackJoin measures a full XR-stack join over two XR-trees:
// index descents, stab-list probes and leaf-chain scans, on a cold pool
// and a warm one. The ad case joins ancestor-descendant, the pc case
// parent-child. The slice case joins the same input held in memory on
// both sides, the semi-join a path-expression pipeline runs over its
// intermediate results: no pages, so it reports ns/pair only.
func BenchmarkXRStackJoin(b *testing.B) {
	as, ds := benchInput()
	b.Run("slice", func(b *testing.B) {
		a, d := SliceSource{Els: as}, SliceSource{Els: ds}
		emit := func(a, d xmldoc.Element) {}
		var pairs int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var c metrics.Counters
			if err := XRStack(AncestorDescendant, a, d, emit, &c); err != nil {
				b.Fatal(err)
			}
			if c.OutputPairs == 0 {
				b.Fatal("join produced no pairs")
			}
			pairs += c.OutputPairs
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
	})
	build := func(b *testing.B, pool *bufferpool.Pool, es []xmldoc.Element) XRTreeSource {
		t, err := core.New(pool, es[0].DocID, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := t.BulkLoad(es, 1.0); err != nil {
			b.Fatal(err)
		}
		return XRTreeSource{T: t}
	}
	for _, tc := range []struct {
		name string
		mode Mode
	}{{"ad", AncestorDescendant}, {"pc", ParentChild}} {
		b.Run(tc.name, func(b *testing.B) {
			benchJoin(b, build, func(a, d XRTreeSource, emit EmitFunc, c *metrics.Counters) error {
				return XRStack(tc.mode, a, d, emit, c)
			})
		})
	}
}

// BenchmarkBPlusJoin is BenchmarkXRStackJoin's input joined by the B+
// algorithm over two B+-trees.
func BenchmarkBPlusJoin(b *testing.B) {
	build := func(b *testing.B, pool *bufferpool.Pool, es []xmldoc.Element) BTreeSource {
		t, err := btree.New(pool, es[0].DocID)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.BulkLoad(es, 1.0); err != nil {
			b.Fatal(err)
		}
		return BTreeSource{T: t}
	}
	benchJoin(b, build, func(a, d BTreeSource, emit EmitFunc, c *metrics.Counters) error {
		return BPlus(AncestorDescendant, a, d, emit, c)
	})
}

// BenchmarkStackTreeDescJoin is BenchmarkXRStackJoin's input joined by the
// no-index algorithm over two paged element lists, which steps over every
// element of both.
func BenchmarkStackTreeDescJoin(b *testing.B) {
	build := func(b *testing.B, pool *bufferpool.Pool, es []xmldoc.Element) ListSource {
		l, err := elemlist.Build(pool, es)
		if err != nil {
			b.Fatal(err)
		}
		return ListSource{L: l}
	}
	benchJoin(b, build, func(a, d ListSource, emit EmitFunc, c *metrics.Counters) error {
		return StackTreeDesc(AncestorDescendant, a, d, emit, c)
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

// spinRunsTask is spinTask in run form: runs runs over an ancestor stack
// of depth elements whose innermost element changes every run, spending
// work rounds of xorshift on each — a structural join's output shape, with
// depth pairs per descendant.
func spinRunsTask(doc uint32, runs, depth, work int) Task {
	return Task{DocID: doc, Runs: func(run RunFunc, c *metrics.Counters) error {
		stack := make([]xmldoc.Element, depth)
		for j := range stack {
			stack[j] = xmldoc.Element{DocID: doc, Start: uint32(j)}
		}
		x := uint32(doc)*2654435761 | 1
		for i := 0; i < runs; i++ {
			for r := 0; r < work; r++ {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
			}
			stack[depth-1].Start = uint32(depth + 2*i)
			run(stack, xmldoc.Element{DocID: doc, Start: uint32(depth+2*i) + 1, End: x})
			c.OutputPairs += int64(depth)
		}
		return nil
	}}
}

// BenchmarkParallel measures the parallel driver as a layer: eight
// synthetic partitions at one and two workers. The dense case emits 8192
// pairs per partition as runs of one, at a few nanoseconds of work per
// pair; the runs case emits as many pairs at the same work per pair, but
// as 1024 runs of eight ancestors (the employee//name shape, where each
// descendant adds one ancestor to the stack); the sparse case emits 64
// pairs after microseconds of work each.
func BenchmarkParallel(b *testing.B) {
	for _, tc := range []struct {
		name  string
		pairs int64 // per task
		task  func(doc uint32) Task
	}{
		{"dense", 8192, func(doc uint32) Task { return spinTask(doc, 8192, 8) }},
		{"runs", 1024 * 8, func(doc uint32) Task { return spinRunsTask(doc, 1024, 8, 64) }},
		{"sparse", 64, func(doc uint32) Task { return spinTask(doc, 64, 2000) }},
	} {
		tasks := make([]Task, 8)
		for i := range tasks {
			tasks[i] = tc.task(uint32(i + 1))
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
				if want := int64(len(tasks)) * tc.pairs; c.OutputPairs != want {
					b.Fatalf("%d pairs, want %d", c.OutputPairs, want)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*c.OutputPairs), "ns/pair")
				benchSink = sink
			})
		}
	}
}

var benchSink uint64
