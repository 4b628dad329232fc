package join

import (
	"math/rand"
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
