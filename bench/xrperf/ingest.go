package main

// ingest_durable: writes beside reads on one WAL-backed XR-tree.
//
// The store is file-backed with the product's default flush policy: every
// acknowledged Insert/Delete has been fsynced through the group-commit
// log, segments are 1 MiB, a fuzzy checkpoint runs every 4 MiB of log,
// the pool is LRU without prefetch, pages are 4 KiB. The pool holds all
// data, so reads are hits and the page file is only written.
//
// The lead op is the single reader's closed loop: FindAncestors (80 %) and
// FindDescendants (20 %) probes of a bulk-loaded employee set, each
// checked against the containment structure computed in set-up. The side
// op is the single writer's closed loop: durable inserts of flat and
// nested elements into the position gaps of that set, with one in ten
// operations a delete of one of its own earlier inserts. The reader
// measures what writers cost readers; the writer's median is the path
// through tree, pool transaction, log and fsync. The writer's throughput
// and p99 (insert_per_s, insert_us_p99) include checkpoint and
// segment-rotation stalls.
//
// After the timed section the store is abandoned as in a crash and
// reopened through log redo: every acknowledged insert must be there,
// every acknowledged delete gone, and Definition 4 must hold.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xrtree"
	"xrtree/internal/core"
	"xrtree/internal/xmldoc"
)

// insertGap is the region-numbering gap of the bulk-loaded set: inserted
// elements live strictly between two numbered positions, so they never
// contain a probed position and the static oracle stays exact.
const insertGap = 16

// gapSlots are the elements a writer may place right after position p of
// a static element, as offsets from p: a flat one, then an outer one with
// an inner one nested inside it.
var gapSlots = [...]struct{ start, end, depth uint32 }{
	{1, 2, 1},
	{3, 10, 1},
	{5, 6, 2},
}

type ingestWorkload struct {
	env
	path  string
	store *xrtree.Store
	xr    *core.Tree
	emps  []xmldoc.Element
	nest  nesting
	// descCands are the static elements FindDescendants probes: those
	// with 8..16 descendants. A narrow band keeps the work of one probe
	// the same from seed to seed; with 1..64 the tail percentile sat on
	// the subtree-size distribution and moved by a quarter between seeds.
	descCands []int32

	// Writer state, carried across rounds.
	wrng    *rand.Rand
	perm    []int
	cursor  int // next (element, slot) to insert: perm[cursor/3], slot cursor%3
	live    []xmldoc.Element
	deleted []uint32
	rrng    *rand.Rand
}

func (w *ingestWorkload) lanes() int { return 2 }

var ingestStoreOptions = xrtree.StoreOptions{BufferPages: 8192, WAL: true}

func (w *ingestWorkload) setup() error {
	var err error
	if w.emps, _, err = deptSets(w.seed, w.scale.ingestElems, insertGap); err != nil {
		return err
	}
	os.RemoveAll(w.dir)
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	w.path = filepath.Join(w.dir, "ingest.db")
	if w.store, err = xrtree.CreateStore(w.path, ingestStoreOptions); err != nil {
		return err
	}
	set, err := w.store.IndexElements(w.emps, xrtree.IndexOptions{SkipList: true, SkipBTree: true})
	if err != nil {
		return err
	}
	if err := w.store.SaveSet("employee", set); err != nil {
		return err
	}
	if w.xr, err = set.XRTree(); err != nil {
		return err
	}

	w.nest = buildNesting(w.emps)
	for i := range w.emps {
		if w.emps[i].Start%insertGap != 0 || w.emps[i].End%insertGap != 0 {
			return fmt.Errorf("static element %v is not numbered on the %d-grid", w.emps[i], insertGap)
		}
		if n := w.nest.last[i] - int32(i); n >= 8 && n <= 16 {
			w.descCands = append(w.descCands, int32(i))
		}
	}
	w.wrng = rand.New(rand.NewSource(w.seed))
	w.rrng = rand.New(rand.NewSource(w.seed + 1))
	w.perm = w.wrng.Perm(len(w.emps))

	// Warm-up: a short untimed round touches every code path once.
	r, err := w.round(100*time.Millisecond, nil)
	if err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("warm-up round: %d of %d operations failed", r.failed, r.attempted)
	}
	return nil
}

// writeOne performs the writer's next operation and reports whether it
// was an insert.
func (w *ingestWorkload) writeOne() (insert bool, err error) {
	if len(w.live) > 0 && w.wrng.Intn(10) == 0 {
		i := w.wrng.Intn(len(w.live))
		e := w.live[i]
		if err := w.xr.Delete(e.Start); err != nil {
			return false, err
		}
		w.live[i] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
		w.deleted = append(w.deleted, e.Start)
		return false, nil
	}
	if w.cursor >= len(w.perm)*len(gapSlots) {
		return false, errors.New("writer ran out of position gaps; raise the corpus size")
	}
	host := w.emps[w.perm[w.cursor/len(gapSlots)]]
	slot := gapSlots[w.cursor%len(gapSlots)]
	w.cursor++
	e := xmldoc.Element{DocID: host.DocID, Start: host.Start + slot.start, End: host.Start + slot.end, Level: host.Level + uint16(slot.depth)}
	if err := w.xr.Insert(e); err != nil {
		return false, err
	}
	w.live = append(w.live, e)
	return true, nil
}

// probeOne performs the reader's next probe and reports whether the
// result matched the oracle.
func (w *ingestWorkload) probeOne(st *xrtree.Stats) (ok bool, err error) {
	if w.rrng.Intn(5) > 0 {
		i := w.rrng.Intn(len(w.emps))
		got, err := w.xr.FindAncestors(w.emps[i].Start, 0, st)
		if err != nil {
			return false, err
		}
		var sum uint64
		for _, e := range got {
			sum += uint64(e.Start)
		}
		return int32(len(got)) == w.nest.ancCount[i] && sum == w.nest.ancSum[i], nil
	}
	i := w.descCands[w.rrng.Intn(len(w.descCands))]
	host := w.emps[i]
	got, err := w.xr.FindDescendants(host.Start, host.End, st)
	if err != nil {
		return false, err
	}
	var static int32
	var sum uint64
	for _, e := range got {
		if e.Start <= host.Start || e.Start >= host.End {
			return false, nil
		}
		if e.Start%insertGap == 0 {
			static++
			sum += uint64(e.Start)
		}
	}
	last := w.nest.last[i]
	return static == last-i && sum == w.nest.startSum[last+1]-w.nest.startSum[i+1], nil
}

func (w *ingestWorkload) round(d time.Duration, tr *tracer) (*roundSamples, error) {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	var wl, rl *lane
	if tr != nil {
		wl, rl = tr.lanes[0], tr.lanes[1]
	}
	writer, reader := &roundSamples{}, &roundSamples{}
	var inserts float64
	var werr, rerr error
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Since(start) < d {
			var root int32
			if wl != nil {
				root = wl.begin("op.write")
			}
			t := time.Now()
			insert, err := w.writeOne()
			el := time.Since(t)
			if wl != nil {
				wl.endOp(root)
			}
			if err != nil {
				werr = err
				return
			}
			writer.side = append(writer.side, ms(el))
			writer.attempted++
			writer.storageOps++
			if insert {
				inserts++
			}
		}
	}()
	go func() {
		defer wg.Done()
		var st xrtree.Stats
		for time.Since(start) < d {
			var root int32
			if rl != nil {
				root = rl.begin("op.probe")
			}
			t := time.Now()
			ok, err := w.probeOne(&st)
			el := time.Since(t)
			if rl != nil {
				rl.endOp(root)
			}
			if err != nil {
				rerr = err
				return
			}
			reader.lead = append(reader.lead, ms(el))
			reader.attempted++
			if !ok {
				reader.failed++
			}
		}
	}()
	wg.Wait()
	if werr != nil {
		return nil, fmt.Errorf("writer: %w", werr)
	}
	if rerr != nil {
		return nil, fmt.Errorf("reader: %w", rerr)
	}
	writer.merge(reader)
	writer.elapsed = time.Since(start)
	writer.add("inserts", inserts)
	return writer, nil
}

func (w *ingestWorkload) counters() counters { return snapshotCounters(w.store) }

// finish crashes the store, recovers it through log redo and verifies
// every acknowledged operation.
func (w *ingestWorkload) finish() (*roundSamples, error) {
	r := &roundSamples{}
	w.store.Abandon()
	w.store = nil
	start := time.Now()
	store, err := xrtree.OpenStore(w.path, ingestStoreOptions)
	if err != nil {
		w.teardown()
		return nil, fmt.Errorf("reopen after abandon: %w", err)
	}
	r.add("redo_ms", float64(time.Since(start).Nanoseconds())/1e6)
	w.store = store
	defer w.teardown()
	set, err := store.OpenSet("employee")
	if err != nil {
		return nil, err
	}
	xr, err := set.XRTree()
	if err != nil {
		return nil, err
	}
	for _, e := range w.live {
		r.attempted++
		got, err := xr.Lookup(e.Start, nil)
		if err != nil || got.End != e.End {
			r.failed++
		}
	}
	for _, s := range w.deleted {
		r.attempted++
		if _, err := xr.Lookup(s, nil); !errors.Is(err, core.ErrNotFound) {
			r.failed++
		}
	}
	r.attempted++
	if err := xr.CheckInvariants(); err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "ingest_durable: invariants after redo:", err)
	}
	if want := len(w.emps) + len(w.live); xr.Len() != want {
		r.failed++
		fmt.Fprintf(os.Stderr, "ingest_durable: %d elements after redo, want %d\n", xr.Len(), want)
	}
	// Space at end of run: page file plus the live log.
	bytes := dirBytes(w.dir)
	r.add("space_amp", float64(bytes)/float64((len(w.emps)+len(w.live))*xmldoc.EncodedSize))
	return r, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

func (w *ingestWorkload) teardown() {
	if w.store != nil {
		w.store.Abandon()
		w.store = nil
	}
	os.RemoveAll(w.dir)
}

func (w *ingestWorkload) named(r *roundSamples, d counters) map[string]float64 {
	return map[string]float64{
		"probe_us_p50":  1e3 * median(r.lead),
		"probe_us_p99":  1e3 * quantile(sortedCopy(r.lead), 0.99),
		"insert_per_s":  float64(len(r.side)) / r.elapsed.Seconds(),
		"insert_us_p99": 1e3 * quantile(sortedCopy(r.side), 0.99),
		"write_amp":     ratio(d.walBytes+d.writes*4096, mean(r.extra["inserts"])*xmldoc.EncodedSize),
	}
}

func (w *ingestWorkload) layerMetrics(plain, _ *roundSamples, _ *tracer, d counters, out map[string]float64) map[string]float64 {
	out["wal.redo_ms"] = mean(plain.extra["redo_ms"])

	// Neither the tree nor the log can be wrapped from outside: layer
	// shares are isolated cost ÷ measured median op time.
	write, probe := median(plain.side), median(plain.lead)
	return map[string]float64{
		"write: core insert, no log (core.insert_us)":           ratio(out["core.insert_us"]/1e3, write),
		"write: wal commit incl. fsync (wal.commit_us_p50)":     ratio(out["wal.commit_us_p50"]/1e3, write),
		"write: pool tx + log + fsync (bufferpool.committx_us)": ratio(out["bufferpool.committx_us"]/1e3, write),
		"probe: FindAncestors alone (core.find_ancestors_ns)":   ratio(out["core.find_ancestors_ns"]/1e6, probe),
	}
}

func (w *ingestWorkload) ladder(out map[string]float64) error {
	if err := ladderPoolHit(w.dir, 2048, w.seed, out); err != nil {
		return err
	}
	ladderLatch(true, out)
	if err := ladderCommit(w.dir, out); err != nil {
		return err
	}
	if err := ladderPagefile(w.dir, 1024, w.seed, false, out); err != nil {
		return err
	}
	hosts := make([]xmldoc.Element, len(w.descCands))
	for i, c := range w.descCands {
		hosts[i] = w.emps[c]
	}
	if err := ladderCore(w.dir, w.emps, starts(w.emps), hosts, true, w.seed, out); err != nil {
		return err
	}
	return ladderParse(w.seed, out)
}
