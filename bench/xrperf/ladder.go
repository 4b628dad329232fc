package main

// The ladder: each layer's public functions driven in isolation, on inputs
// derived from the workload (the same element sets; as many pages as its
// store holds). The pool and the page file do not reveal which pages an
// operation touched, so page-id sequences are seeded permutations of the
// store's page range rather than recordings. Every ladder runs on a page
// file in the workload's scratch directory: the memory page file copies
// itself on every page allocation, which would drown the work of a layer
// that allocates (bulk loads, list builds, splits).
//
// Iteration counts are fixed, so a ladder does the same work on every run;
// each number is the median over `batches` batches.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xrtree/internal/btree"
	"xrtree/internal/bufferpool"
	"xrtree/internal/core"
	"xrtree/internal/datagen"
	"xrtree/internal/elemlist"
	"xrtree/internal/join"
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/platch"
	"xrtree/internal/wal"
	"xrtree/internal/xmldoc"
)

const batches = 5

// ladderDiv divides the ladder's iteration counts. Only the tests change
// it (to 20, in TestMain), so that they finish quickly.
var ladderDiv = 1

// iters scales a full-size iteration count.
func iters(n int) int { return max(1, n/ladderDiv) }

// nsPerCall runs fn n times per batch and returns the median batch's
// nanoseconds per call.
func nsPerCall(n int, fn func(i int) error) (float64, error) {
	n = iters(n)
	var per []float64
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(b*n + i); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// allocsPerCall returns heap allocations per call of fn over n calls.
func allocsPerCall(n int, fn func(i int) error) (float64, error) {
	n = iters(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// filledFile creates a page file of the given size with every page written.
func filledFile(path string, pages int) (*pagefile.File, []pagefile.PageID, error) {
	os.Remove(path)
	f, err := pagefile.Create(path, pagefile.Options{})
	if err != nil {
		return nil, nil, err
	}
	buf := make([]byte, f.PageSize())
	ids := make([]pagefile.PageID, pages)
	for i := range ids {
		if ids[i], err = f.Allocate(); err != nil {
			f.Close()
			return nil, nil, err
		}
		for j := range buf {
			buf[j] = byte(i + j)
		}
		if err := f.WritePage(ids[i], buf); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return f, ids, nil
}

// ladderPagefile times page writes and — with reads set — single-page
// reads and vectored reads of 8 adjacent pages, on a file of the
// workload's size.
func ladderPagefile(dir string, pages int, seed int64, reads bool, out map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "ladder.pf")
	f, ids, err := filledFile(path, pages)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer f.Close()
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(pages)
	buf := make([]byte, f.PageSize())
	if reads {
		if out["pagefile.read_ns"], err = nsPerCall(4000, func(i int) error {
			return f.ReadPage(ids[order[i%pages]], buf)
		}); err != nil {
			return err
		}
		const run = 8
		bufs := make([][]byte, run)
		for i := range bufs {
			bufs[i] = make([]byte, f.PageSize())
		}
		batch := make([]pagefile.PageID, run)
		dsts := make([][]byte, run)
		perRun, err := nsPerCall(1000, func(i int) error {
			first := order[i%pages] % (pages - run)
			for k := 0; k < run; k++ {
				batch[k], dsts[k] = ids[first+k], bufs[k]
			}
			return f.ReadPages(batch, dsts)
		})
		if err != nil {
			return err
		}
		out["pagefile.readv_ns_per_page"] = perRun / run
	}
	out["pagefile.write_ns"], err = nsPerCall(2000, func(i int) error {
		return f.WritePage(ids[order[i%pages]], buf)
	})
	return err
}

// ladderPoolHit times the pool's hit paths on a pool that holds every page.
func ladderPoolHit(dir string, pages int, seed int64, out map[string]float64) error {
	path := filepath.Join(dir, "ladder-hit.pf")
	f, ids, err := filledFile(path, pages)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer f.Close()
	pool, err := bufferpool.New(f, pages+16)
	if err != nil {
		return err
	}
	defer pool.Close()
	order := rand.New(rand.NewSource(seed)).Perm(pages)
	buf := make([]byte, f.PageSize())
	for _, id := range ids { // fault everything in
		if err := pool.FetchCopy(id, buf); err != nil {
			return err
		}
	}
	fetch := func(i int) error {
		id := ids[order[i%pages]]
		if _, err := pool.Fetch(id); err != nil {
			return err
		}
		return pool.Unpin(id, false)
	}
	if out["bufferpool.fetch_hit_ns"], err = nsPerCall(200000, fetch); err != nil {
		return err
	}
	if out["bufferpool.fetchcopy_ns"], err = nsPerCall(200000, func(i int) error {
		return pool.FetchCopy(ids[order[i%pages]], buf)
	}); err != nil {
		return err
	}
	out["bufferpool.allocs_per_fetch"], err = allocsPerCall(50000, fetch)
	return err
}

// ladderPoolMiss times the miss-and-evict path: a 100-frame pool cycling
// through a file many times its size, so every fetch misses.
func ladderPoolMiss(dir string, pages int, out map[string]float64) error {
	path := filepath.Join(dir, "ladder-miss.pf")
	f, ids, err := filledFile(path, pages)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer f.Close()
	pool, err := bufferpool.New(f, 100)
	if err != nil {
		return err
	}
	defer pool.Close()
	buf := make([]byte, f.PageSize())
	out["bufferpool.fetch_miss_ns"], err = nsPerCall(4000, func(i int) error {
		return pool.FetchCopy(ids[i%pages], buf)
	})
	return err
}

// ladderCommit times the log alone (one committer, three page images) and
// the pool's transaction path on top of it (Begin → 3×FetchHeld → dirty
// unpin → CommitTx), both through fsync.
func ladderCommit(dir string, out map[string]float64) error {
	walDir := filepath.Join(dir, "ladder.wal")
	os.RemoveAll(walDir)
	defer os.RemoveAll(walDir)
	const pageSize = 4096
	l, err := wal.Start(walDir, pageSize, 1, wal.Options{})
	if err != nil {
		return err
	}
	images := make([]wal.PageImage, 3)
	for i := range images {
		images[i] = wal.PageImage{ID: pagefile.PageID(i + 2), Data: make([]byte, pageSize)}
	}
	var us []float64
	commits := iters(300)
	for i := 0; i < commits; i++ {
		start := time.Now()
		if _, err := l.Commit(images); err != nil {
			l.Abandon()
			return err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	out["wal.commit_us_p50"] = median(us)
	out["wal.bytes_per_commit"] = float64(l.Stats().Bytes) / float64(commits)
	l.Abandon()

	path := filepath.Join(dir, "ladder-tx.pf")
	f, ids, err := filledFile(path, 64)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer f.Close()
	pool, err := bufferpool.New(f, 128)
	if err != nil {
		return err
	}
	defer pool.Close()
	os.RemoveAll(walDir)
	if l, err = wal.Start(walDir, pageSize, 1, wal.Options{}); err != nil {
		return err
	}
	defer l.Abandon()
	pool.SetWAL(l, 0)
	us = us[:0]
	for i := 0; i < commits; i++ {
		start := time.Now()
		tx := pool.Begin()
		for k := 0; k < 3; k++ {
			id := ids[(i*3+k)%len(ids)]
			data, err := pool.FetchHeld(tx, id)
			if err != nil {
				return err
			}
			data[8]++
			if err := pool.UnpinTx(tx, id, true); err != nil {
				return err
			}
		}
		if err := pool.CommitTx(tx); err != nil {
			return err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	out["bufferpool.committx_us"] = median(us)
	return nil
}

// ladderLatch times the page-latch table: uncontended shared and
// exclusive pairs, and a shared pair on an id one other goroutine keeps
// taking exclusively.
func ladderLatch(contended bool, out map[string]float64) {
	t := platch.NewTable()
	const id = pagefile.PageID(7)
	out["platch.rlock_ns"], _ = nsPerCall(500000, func(i int) error { t.RLock(id); t.RUnlock(id); return nil })
	out["platch.lock_ns"], _ = nsPerCall(500000, func(i int) error { t.Lock(id); t.Unlock(id); return nil })
	if !contended {
		return
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			t.Lock(id)
			t.Unlock(id)
		}
	}()
	out["platch.contended_rlock_ns"], _ = nsPerCall(200000, func(i int) error { t.RLock(id); t.RUnlock(id); return nil })
	stop.Store(true)
	wg.Wait()
}

// filePool returns a pool of the given capacity over a new page file in
// dir, and the function that closes and removes both.
func filePool(dir, name string, pages int) (*bufferpool.Pool, func(), error) {
	path := filepath.Join(dir, name)
	os.Remove(path)
	f, err := pagefile.Create(path, pagefile.Options{})
	if err != nil {
		return nil, nil, err
	}
	pool, err := bufferpool.New(f, pages)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, nil, err
	}
	return pool, func() { pool.Close(); f.Close(); os.Remove(path) }, nil
}

// gapElement is an element that fits in the numbering gap right after e's
// start, at offset off.
func gapElement(e xmldoc.Element, off uint32) xmldoc.Element {
	return xmldoc.Element{DocID: e.DocID, Start: e.Start + off, End: e.Start + off + 1, Level: e.Level + 1}
}

// ladderBTree times the B+-tree baseline on the descendant set.
func ladderBTree(dir string, es []xmldoc.Element, seed int64, out map[string]float64) error {
	pool, done, err := filePool(dir, "ladder-btree.pf", 4096)
	if err != nil {
		return err
	}
	defer done()
	t, err := btree.New(pool, es[0].DocID)
	if err != nil {
		return err
	}
	if err := t.BulkLoad(es, 0); err != nil {
		return err
	}
	order := rand.New(rand.NewSource(seed)).Perm(len(es))
	var c metrics.Counters
	if out["btree.lookup_ns"], err = nsPerCall(20000, func(i int) error {
		_, err := t.Lookup(es[order[i%len(es)]].Start, &c)
		return err
	}); err != nil {
		return err
	}
	out["btree.pages_per_lookup"] = float64(c.IndexNodeReads+c.LeafReads) / float64(batches*iters(20000))
	if out["btree.seek_ns"], err = nsPerCall(20000, func(i int) error {
		it, err := t.SeekGE(es[order[i%len(es)]].Start, nil)
		if err != nil {
			return err
		}
		return it.Close()
	}); err != nil {
		return err
	}
	// Updates need free start positions: only sets numbered with a gap
	// have them. Inserts are timed as one batch, then deleted again.
	if es[1].Start-es[0].Start < 2 {
		return nil
	}
	n := iters(2000)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := t.Insert(gapElement(es[order[i%len(es)]], 1)); err != nil {
			return err
		}
	}
	out["btree.insert_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
	start = time.Now()
	for i := 0; i < n; i++ {
		if err := t.Delete(es[order[i%len(es)]].Start + 1); err != nil {
			return err
		}
	}
	out["btree.delete_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
	return nil
}

// bulkLoaded bulk-loads es into a new XR-tree on pool and reports the
// time as core.bulkload_ms.
func bulkLoaded(pool *bufferpool.Pool, es []xmldoc.Element, out map[string]float64) (*core.Tree, error) {
	t, err := core.New(pool, es[0].DocID, core.Options{})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := t.BulkLoad(es, 0); err != nil {
		return nil, err
	}
	out["core.bulkload_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	return t, nil
}

// ladderBulkLoad reports core.bulkload_ms for es.
func ladderBulkLoad(dir string, es []xmldoc.Element, out map[string]float64) error {
	pool, done, err := filePool(dir, "ladder-bulk.pf", 8192)
	if err != nil {
		return err
	}
	defer done()
	_, err = bulkLoaded(pool, es, out)
	return err
}

// ladderCore times the XR-tree on the ancestor set: probes at the given
// positions, descendant queries on the given hosts and seeks. With updates
// set (the set must be numbered with a gap) it also times inserts and
// deletes without a log.
func ladderCore(dir string, es []xmldoc.Element, probes []uint32, hosts []xmldoc.Element, updates bool, seed int64, out map[string]float64) error {
	pool, done, err := filePool(dir, "ladder-core.pf", 8192)
	if err != nil {
		return err
	}
	defer done()
	t, err := bulkLoaded(pool, es, out)
	if err != nil {
		return err
	}

	order := rand.New(rand.NewSource(seed)).Perm(len(probes))
	var c metrics.Counters
	probe := func(i int) error {
		_, err := t.FindAncestors(probes[order[i%len(probes)]], 0, &c)
		return err
	}
	const n = 20000
	if out["core.find_ancestors_ns"], err = nsPerCall(n, probe); err != nil {
		return err
	}
	probed := float64(batches * iters(n))
	out["core.pages_per_probe"] = float64(c.IndexNodeReads+c.LeafReads+c.StabPageReads) / probed
	out["core.stab_pages_per_probe"] = float64(c.StabPageReads) / probed
	if out["core.allocs_per_probe"], err = allocsPerCall(n, probe); err != nil {
		return err
	}
	if out["core.find_descendants_ns"], err = nsPerCall(n, func(i int) error {
		h := hosts[i%len(hosts)]
		_, err := t.FindDescendants(h.Start, h.End, nil)
		return err
	}); err != nil {
		return err
	}
	if out["core.seek_ns"], err = nsPerCall(n, func(i int) error {
		it, err := t.SeekGE(probes[order[i%len(probes)]], nil)
		if err != nil {
			return err
		}
		return it.Close()
	}); err != nil {
		return err
	}
	if !updates {
		return nil
	}
	m := iters(4000)
	pick := rand.New(rand.NewSource(seed + 1)).Perm(len(es))
	start := time.Now()
	for i := 0; i < m; i++ {
		if err := t.Insert(gapElement(es[pick[i%len(es)]], 1)); err != nil {
			return err
		}
	}
	out["core.insert_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(m)
	start = time.Now()
	for i := 0; i < m; i++ {
		if err := t.Delete(es[pick[i%len(es)]].Start + 1); err != nil {
			return err
		}
	}
	out["core.delete_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(m)
	return nil
}

// ladderList times building and scanning a paged element list.
func ladderList(dir string, es []xmldoc.Element, out map[string]float64) error {
	pool, done, err := filePool(dir, "ladder-list.pf", 2048)
	if err != nil {
		return err
	}
	defer done()
	start := time.Now()
	l, err := elemlist.Build(pool, es)
	if err != nil {
		return err
	}
	out["elemlist.build_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	var per []float64
	for b := 0; b < batches; b++ {
		start := time.Now()
		it := l.Scan(nil)
		n := 0
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			n++
		}
		if err := it.Close(); err != nil {
			return err
		}
		if n != len(es) {
			return fmt.Errorf("list scan returned %d of %d elements", n, len(es))
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	out["elemlist.scan_ns_per_elem"] = median(per)
	return nil
}

// ladderParse times xmldoc.Parse on the XML text of a generated document.
func ladderParse(seed int64, out map[string]float64) error {
	doc, err := datagen.Department(datagen.DeptConfig{Seed: seed, DocID: 1, Departments: 4})
	if err != nil {
		return err
	}
	var xml bytes.Buffer
	if err := doc.WriteXML(&xml); err != nil {
		return err
	}
	var mbps []float64
	for b := 0; b < batches; b++ {
		start := time.Now()
		if _, err := xmldoc.Parse(bytes.NewReader(xml.Bytes()), xmldoc.ParseOptions{DocID: 1}); err != nil {
			return err
		}
		mbps = append(mbps, float64(xml.Len())/1e6/time.Since(start).Seconds())
	}
	out["xmldoc.parse_mb_per_s"] = median(mbps)
	return nil
}

// ladderMerge times the parallel driver alone: tasks that emit prepared
// pairs from memory, so nothing but dispatch, chunking and the ordered
// merge is measured.
func ladderMerge(tasks, pairsPerTask int, out map[string]float64) error {
	pairs := make([]join.Pair, pairsPerTask)
	for i := range pairs {
		pairs[i] = join.Pair{A: xmldoc.Element{Start: uint32(i)}, D: xmldoc.Element{Start: uint32(i + 1)}}
	}
	ts := make([]join.Task, tasks)
	for i := range ts {
		ts[i] = join.Task{DocID: uint32(i + 1), Run: func(emit join.EmitFunc, _ *metrics.Counters) error {
			for _, p := range pairs {
				emit(p.A, p.D)
			}
			return nil
		}}
	}
	var ms []float64
	for b := 0; b < 4*batches; b++ {
		var n int64
		start := time.Now()
		if err := join.Parallel(ts, join.Options{Workers: 2}, func(_, _ xmldoc.Element) { n++ }, nil); err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
		if n != int64(tasks*pairsPerTask) {
			return fmt.Errorf("parallel merge delivered %d of %d pairs", n, tasks*pairsPerTask)
		}
	}
	out["join.merge_ms"] = median(ms)
	return nil
}
