package main

// join_warm and join_cold: the same operations in two storage regimes.
//
// The lead op is one sweep of six structural joins over VaryBothSelectivity
// sets cut from a Department corpus: XR-stack `//` at 90 %, 25 % and 1 %
// joining, XR-stack `/` at 25 %, B+ `//` at 25 % and no-index `//` at 25 %.
// The side op is the employee//name join over a collection of small
// Department documents with ParallelJoin{Workers: 2}; the same join run
// serially right before it gives join.parallel_speedup.
//
// Both keep the data in a store file. join_warm's pool holds every page
// twice over, so after the warm-up no page is ever read: CPU alone. (A
// memory-backed store would do the same, but the memory page file copies
// itself on every page allocation, and set-up at this size would take
// minutes.) join_cold reads the same data through the paper's 100-frame
// pool and drops the cache before every join, so every join starts cold
// and reads several times the pool.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"xrtree"
	"xrtree/internal/join"
	"xrtree/internal/workload"
	"xrtree/internal/xmldoc"
)

type joinKind struct {
	name string
	alg  xrtree.Algorithm
	mode xrtree.Mode
	pct  float64
}

var sweepKinds = []joinKind{
	{"xrstack_ad90", xrtree.AlgXRStack, xrtree.AncestorDescendant, 0.90},
	{"xrstack_ad25", xrtree.AlgXRStack, xrtree.AncestorDescendant, 0.25},
	{"xrstack_ad01", xrtree.AlgXRStack, xrtree.AncestorDescendant, 0.01},
	{"xrstack_pc25", xrtree.AlgXRStack, xrtree.ParentChild, 0.25},
	{"bplus_ad25", xrtree.AlgBPlus, xrtree.AncestorDescendant, 0.25},
	{"noindex_ad25", xrtree.AlgNoIndex, xrtree.AncestorDescendant, 0.25},
}

// headline is the sweep point the join.* per-layer metrics describe.
const headline = 1 // xrstack_ad25

// warmFrames is join_warm's pool: at least twice the pages of the store.
const warmFrames = 65536

// pairSum digests a join's output stream: pair count, an order-insensitive
// sum (compared across algorithms and against the reference join) and an
// order-sensitive chain (every repetition must reproduce the stream).
type pairSum struct {
	n     int64
	sum   uint64
	chain uint64
}

func (p *pairSum) emit(a, d xmldoc.Element) {
	h := (uint64(a.DocID)<<52 ^ uint64(a.Start)<<26 ^ uint64(d.Start)) * 0x9E3779B97F4A7C15
	p.n++
	p.sum += h
	p.chain = p.chain*1099511628211 + h
}

// sameSet reports whether two digests saw the same pairs in any order.
func (p pairSum) sameSet(o pairSum) bool { return p.n == o.n && p.sum == o.sum }

type joinWorkload struct {
	env
	name string
	cold bool

	store    *xrtree.Store
	path     string
	sets     map[float64][2]*xrtree.ElementSet
	want     []pairSum // per sweep kind
	coll     *xrtree.Collection
	collWant pairSum
	elements int64 // elements stored, over all sets and documents
}

func (w *joinWorkload) lanes() int { return 1 }

func (w *joinWorkload) setup() error {
	emps, names, err := deptSets(w.seed, w.scale.joinElems, 2)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	w.path = filepath.Join(w.dir, "join.db")
	os.Remove(w.path)
	// The paper's pool (§6.1): 100 frames, 4 KiB pages, LRU.
	frames := 100
	if !w.cold {
		frames = warmFrames
	}
	if w.store, err = xrtree.CreateStore(w.path, xrtree.StoreOptions{BufferPages: frames}); err != nil {
		return err
	}

	w.sets = map[float64][2]*xrtree.ElementSet{}
	for _, pct := range []float64{0.90, 0.25, 0.01} {
		s := workload.VaryBothSelectivity(emps, names, pct, w.seed)
		a, err := w.store.IndexElements(s.A, xrtree.IndexOptions{})
		if err != nil {
			return err
		}
		d, err := w.store.IndexElements(s.D, xrtree.IndexOptions{})
		if err != nil {
			return err
		}
		w.sets[pct] = [2]*xrtree.ElementSet{a, d}
		w.elements += int64(len(s.A) + len(s.D))
	}
	w.coll = w.store.NewCollection()
	for i := 0; i < w.scale.collDocs; i++ {
		doc, err := deptDocNear(w.seed, uint32(i+1), w.scale.collDepts, w.scale.collEmps[0], w.scale.collEmps[1])
		if err != nil {
			return err
		}
		if err := w.coll.Add(doc); err != nil {
			return err
		}
		w.elements += int64(len(doc.ElementsByTag("employee")) + len(doc.ElementsByTag("name")))
	}
	fi, err := os.Stat(w.path)
	if err != nil {
		return err
	}
	if pages := fi.Size() / 4096; !w.cold && 2*pages > warmFrames {
		return fmt.Errorf("the store holds %d pages: more than half the warm pool's %d frames", pages, warmFrames)
	}
	if err := w.oracle(); err != nil {
		return err
	}
	// Warm-up: one untimed iteration of the closed loop.
	r := &roundSamples{}
	if err := w.iteration(r, nil); err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("warm-up round: %d of %d joins returned a wrong result", r.failed, r.attempted)
	}
	return nil
}

// oracle computes what every join must return. The expected pair set of
// each sweep point comes from the no-index algorithm; every algorithm's
// first run must reproduce that set and then pins the order it emits it
// in. The no-index algorithm itself is checked against the brute-force
// join.Reference on a 1/50-scale draw of the same generator.
func (w *joinWorkload) oracle() error {
	small, smallNames, err := deptSets(w.seed, w.scale.joinElems/50+8, 2)
	if err != nil {
		return err
	}
	sample := workload.VaryBothSelectivity(small, smallNames, 0.25, w.seed)
	ms, err := xrtree.NewMemStore(xrtree.StoreOptions{})
	if err != nil {
		return err
	}
	defer ms.Close()
	sa, err := ms.IndexElements(sample.A, xrtree.IndexOptions{})
	if err != nil {
		return err
	}
	sd, err := ms.IndexElements(sample.D, xrtree.IndexOptions{})
	if err != nil {
		return err
	}
	for _, mode := range []xrtree.Mode{xrtree.AncestorDescendant, xrtree.ParentChild} {
		var ref, got pairSum
		for _, p := range join.Reference(mode, sample.A, sample.D) {
			ref.emit(p.A, p.D)
		}
		if err := xrtree.Join(xrtree.AlgNoIndex, mode, sa, sd, got.emit, nil); err != nil {
			return err
		}
		if !got.sameSet(ref) {
			return fmt.Errorf("oracle: no-index join disagrees with join.Reference on the 1/50 sample (mode %d: %d vs %d pairs)", mode, got.n, ref.n)
		}
	}

	w.want = make([]pairSum, len(sweepKinds))
	for i, k := range sweepKinds {
		var base, got pairSum
		s := w.sets[k.pct]
		if err := xrtree.Join(xrtree.AlgNoIndex, k.mode, s[0], s[1], base.emit, nil); err != nil {
			return err
		}
		if err := xrtree.Join(k.alg, k.mode, s[0], s[1], got.emit, nil); err != nil {
			return err
		}
		if !got.sameSet(base) {
			return fmt.Errorf("oracle: %s returned %d pairs, no-index %d", k.name, got.n, base.n)
		}
		w.want[i] = got
	}
	var base pairSum
	if err := w.coll.Join(xrtree.AlgNoIndex, xrtree.AncestorDescendant, "employee", "name", base.emit, nil); err != nil {
		return err
	}
	if err := w.coll.Join(xrtree.AlgXRStack, xrtree.AncestorDescendant, "employee", "name", w.collWant.emit, nil); err != nil {
		return err
	}
	if !w.collWant.sameSet(base) {
		return fmt.Errorf("oracle: collection XR-stack join returned %d pairs, no-index %d", w.collWant.n, base.n)
	}
	return nil
}

// runKind runs one sweep join, through the public entry point, or — when
// traced — through the same algorithm with decorated sources.
func (w *joinWorkload) runKind(k joinKind, got *pairSum, st *xrtree.Stats, l *lane) error {
	a, d := w.sets[k.pct][0], w.sets[k.pct][1]
	if l == nil {
		return xrtree.Join(k.alg, k.mode, a, d, got.emit, st)
	}
	id := l.begin("join." + k.name)
	emit, flush := tracedEmit(l, got.emit)
	var err error
	switch k.alg {
	case xrtree.AlgXRStack:
		ta, _ := a.XRTree()
		td, _ := d.XRTree()
		err = join.XRStack(k.mode, tracedSource{join.XRTreeSource{T: ta}, l, "core"}, tracedSource{join.XRTreeSource{T: td}, l, "core"}, emit, st)
	case xrtree.AlgBPlus:
		ta, _ := a.BTree()
		td, _ := d.BTree()
		err = join.BPlus(k.mode, tracedSource{join.BTreeSource{T: ta}, l, "btree"}, tracedSource{join.BTreeSource{T: td}, l, "btree"}, emit, st)
	case xrtree.AlgNoIndex:
		la, _ := a.List()
		ld, _ := d.List()
		err = join.StackTreeDesc(k.mode, tracedSource{join.ListSource{L: la}, l, "elemlist"}, tracedSource{join.ListSource{L: ld}, l, "elemlist"}, emit, st)
	}
	flush()
	l.end(id)
	return err
}

// iteration is one turn of the closed loop: a sweep, the serial collection
// join, the parallel collection join.
func (w *joinWorkload) iteration(r *roundSamples, l *lane) error {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	check := func(got, want pairSum) {
		r.attempted++
		r.storageOps++
		if got != want {
			r.failed++
		}
	}
	var root int32
	if l != nil {
		root = l.begin("op.sweep")
	}
	var sweep time.Duration
	for i, k := range sweepKinds {
		if w.cold {
			if err := w.store.DropCache(); err != nil {
				return err
			}
		}
		var got pairSum
		var st xrtree.Stats
		start := time.Now()
		if err := w.runKind(k, &got, &st, l); err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		el := time.Since(start)
		sweep += el
		check(got, w.want[i])
		r.add("join."+k.name, ms(el))
		if i == headline {
			r.add("headline.scanned", float64(st.ElementsScanned))
			r.add("headline.pairs", float64(st.OutputPairs))
		}
	}
	if l != nil {
		l.endOp(root)
	}
	r.lead = append(r.lead, ms(sweep))

	for _, parallel := range []bool{false, true} {
		if w.cold {
			if err := w.store.DropCache(); err != nil {
				return err
			}
		}
		var got pairSum
		var err error
		name := "op.colljoin_serial"
		if parallel {
			name = "op.colljoin_parallel"
		}
		if l != nil {
			root = l.begin(name)
		}
		start := time.Now()
		if parallel {
			err = w.coll.ParallelJoin(xrtree.AlgXRStack, xrtree.AncestorDescendant, "employee", "name", got.emit, nil, xrtree.ParallelJoinOptions{Workers: 2})
		} else {
			err = w.coll.Join(xrtree.AlgXRStack, xrtree.AncestorDescendant, "employee", "name", got.emit, nil)
		}
		el := time.Since(start)
		if l != nil {
			l.endOp(root)
		}
		if err != nil {
			return err
		}
		check(got, w.collWant)
		if parallel {
			r.side = append(r.side, ms(el))
		} else {
			r.add("colljoin_serial", ms(el))
		}
	}
	return nil
}

func (w *joinWorkload) round(d time.Duration, tr *tracer) (*roundSamples, error) {
	var l *lane
	if tr != nil {
		l = tr.lanes[0]
	}
	r := &roundSamples{}
	start := time.Now()
	for time.Since(start) < d {
		if err := w.iteration(r, l); err != nil {
			return nil, err
		}
	}
	r.elapsed = time.Since(start)
	return r, nil
}

func (w *joinWorkload) counters() counters { return snapshotCounters(w.store) }

func (w *joinWorkload) finish() (*roundSamples, error) {
	r := &roundSamples{}
	if w.cold {
		if err := w.store.Close(); err != nil {
			return nil, err
		}
		w.store = nil
		fi, err := os.Stat(w.path)
		if err != nil {
			return nil, err
		}
		r.add("space_amp", float64(fi.Size())/float64(w.elements*xmldoc.EncodedSize))
	}
	w.teardown()
	return r, nil
}

func (w *joinWorkload) teardown() {
	if w.store != nil {
		w.store.Close()
		w.store = nil
	}
	os.RemoveAll(w.dir)
}

func (w *joinWorkload) named(r *roundSamples, d counters) map[string]float64 {
	m := map[string]float64{"sweep_ms_p50": median(r.lead)}
	if w.cold {
		m["page_reads_per_join"] = ratio(d.reads, float64(r.storageOps))
	} else {
		m["pjoin_ms_p50"] = median(r.side)
	}
	return m
}

func (w *joinWorkload) layerMetrics(plain, _ *roundSamples, tr *tracer, d counters, out map[string]float64) map[string]float64 {
	out["join.xrstack_ms_p50"] = median(plain.extra["join.xrstack_ad25"])
	out["join.bplus_ms_p50"] = median(plain.extra["join.bplus_ad25"])
	out["join.noindex_ms_p50"] = median(plain.extra["join.noindex_ad25"])
	scanned, pairs := mean(plain.extra["headline.scanned"]), mean(plain.extra["headline.pairs"])
	out["join.scanned_per_pair"] = ratio(scanned, pairs)
	s := w.sets[sweepKinds[headline].pct]
	out["join.skip_effectiveness"] = xrtree.SkippingEffectiveness(int64(scanned), int64(s[0].Len()+s[1].Len()))
	out["join.parallel_speedup"] = ratio(median(plain.extra["colljoin_serial"]), median(plain.side))
	// Self time of the headline join: its span minus what its decorated
	// sources and the emit callback account for.
	span := tr.table()["join."+sweepKinds[headline].name]
	out["join.self_share"] = ratio(float64(span.Self), float64(span.Busy))

	// The pool and the page file sit behind concrete types: their share
	// of a sweep is the exported count times the isolated cost.
	lead := median(plain.lead)
	perSweep := float64(len(sweepKinds)) / float64(plain.storageOps)
	if w.cold {
		return map[string]float64{
			"pagefile reads (reads × pagefile.read_ns)":          ratio(d.reads*perSweep*out["pagefile.read_ns"]/1e6, lead),
			"pool miss path (misses × bufferpool.fetch_miss_ns)": ratio(d.misses*perSweep*out["bufferpool.fetch_miss_ns"]/1e6, lead),
		}
	}
	// Hits are pinned fetches or copy fetches; the counter does not say
	// which, so the share lies between the two costings.
	return map[string]float64{
		"pool hit path, at least (hits × bufferpool.fetch_hit_ns)": ratio(d.hits*perSweep*out["bufferpool.fetch_hit_ns"]/1e6, lead),
		"pool hit path, at most (hits × bufferpool.fetchcopy_ns)":  ratio(d.hits*perSweep*out["bufferpool.fetchcopy_ns"]/1e6, lead),
	}
}

// ladder drives the layers under the join workloads in isolation. The
// warm workload exercises the index and pool hit paths, the cold one the
// page file and the pool's miss path; both build and scan lists.
func (w *joinWorkload) ladder(out map[string]float64) error {
	s := w.sets[sweepKinds[headline].pct]
	anc, desc := s[0].Elements(), s[1].Elements()
	if err := ladderList(w.dir, desc, out); err != nil {
		return err
	}
	if err := ladderParse(w.seed, out); err != nil {
		return err
	}
	k := sweepKinds[headline]
	var err error
	if out["join.allocs_per_join"], err = allocsPerCall(100, func(int) error {
		var got pairSum
		return w.runKind(k, &got, nil, nil)
	}); err != nil {
		return err
	}
	if w.cold {
		fi, err := os.Stat(w.path)
		if err != nil {
			return err
		}
		pages := int(fi.Size() / 4096)
		if err := ladderPagefile(w.dir, pages, w.seed, true, out); err != nil {
			return err
		}
		if err := ladderPoolMiss(w.dir, pages, out); err != nil {
			return err
		}
		return ladderBulkLoad(w.dir, anc, out)
	}

	if err := ladderPoolHit(w.dir, 2048, w.seed, out); err != nil {
		return err
	}
	ladderLatch(false, out)
	if err := ladderBTree(w.dir, desc, w.seed, out); err != nil {
		return err
	}
	// Probe the ancestor tree where the join does: at descendant starts;
	// descendant queries run on ancestors with a bounded subtree.
	nest := buildNesting(anc)
	var hosts []xmldoc.Element
	for i := range anc {
		if n := nest.last[i] - int32(i); n >= 1 && n <= 64 {
			hosts = append(hosts, anc[i])
		}
	}
	if len(hosts) == 0 {
		hosts = anc[:1]
	}
	if err := ladderCore(w.dir, anc, starts(desc), hosts, false, w.seed, out); err != nil {
		return err
	}
	if err := ladderMerge(w.scale.collDocs, int(w.collWant.n)/w.scale.collDocs, out); err != nil {
		return err
	}

	// What an event collector attached as the headline join's tracer costs.
	var plain, collected []float64
	for i := 0; i < iters(20); i++ {
		for _, withCollector := range []bool{false, true} {
			var got pairSum
			var st xrtree.Stats
			if withCollector {
				st.Tracer = xrtree.NewCollector()
			}
			start := time.Now()
			if err := w.runKind(k, &got, &st, nil); err != nil {
				return err
			}
			el := float64(time.Since(start).Nanoseconds())
			if withCollector {
				collected = append(collected, el)
			} else {
				plain = append(plain, el)
			}
		}
	}
	out["obs.join_trace_overhead_ratio"] = ratio(median(collected), median(plain))
	return nil
}

func starts(es []xmldoc.Element) []uint32 {
	out := make([]uint32, len(es))
	for i, e := range es {
		out[i] = e.Start
	}
	return out
}
