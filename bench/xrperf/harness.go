package main

// The measurement protocol shared by the four workloads.
//
// Untraced run (the official numbers): set up setupRepeats times, keeping
// the last; run `rounds` equal timed rounds with a GC between them; verify
// after the timed section. Every latency, rate and counter metric is
// computed per round and the median over the rounds is reported, with the
// round-to-round spread next to it.
//
// Traced run (the per-layer numbers): set up once, run one untraced and
// one traced round of a quarter of the time each, read the exported
// counters around the untraced round, then drive the layers in isolation
// (the ladder).

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"xrtree"
)

const (
	rounds = 5
	// setupRepeats: the driver's contract asks that set-up run several
	// times in a run and setup_s be their median (quoted in ../README.md).
	setupRepeats = 3
)

// scale fixes the input sizes. fullScale is what every run uses and what
// BENCHMARK.json's bounds were measured at; the tests run a smaller one.
type scale struct {
	joinElems     int // employee elements the join input sets are cut from
	collDocs      int // documents of the collection join
	collDepts     int // departments per collection document
	collEmps      [2]int
	ingestElems   int // bulk-loaded employee elements under ingest
	serveDocs     int // documents behind the serving workload
	serveEmps     [2]int
	serveSetElems int // elements of the set insert requests extend
}

var fullScale = scale{joinElems: 131072, collDocs: 8, collDepts: 6, collEmps: [2]int{950, 1050}, ingestElems: 100000, serveDocs: 64, serveEmps: [2]int{40, 60}, serveSetElems: 20000}

// env is what a workload needs from the invocation.
type env struct {
	seed  int64
	scale scale
	dir   string // private scratch directory inside the checkout
}

// roundSamples is what one round produced.
type roundSamples struct {
	lead, side []float64 // latencies in ms
	elapsed    time.Duration
	attempted  int64
	failed     int64
	// storageOps is the denominator of the per-op storage counters: joins
	// run, writer operations acknowledged, or requests completed.
	storageOps int64
	// extra holds named latency samples (ms) or counts the workload's
	// per-layer metrics are derived from.
	extra map[string][]float64
}

func (r *roundSamples) add(name string, v float64) {
	if r.extra == nil {
		r.extra = map[string][]float64{}
	}
	r.extra[name] = append(r.extra[name], v)
}

// merge folds a concurrent load goroutine's samples into r.
func (r *roundSamples) merge(o *roundSamples) {
	r.lead = append(r.lead, o.lead...)
	r.side = append(r.side, o.side...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.storageOps += o.storageOps
	for k, v := range o.extra {
		for _, x := range v {
			r.add(k, x)
		}
	}
}

// runner is one of the four benchmark workloads.
type runner interface {
	// setup generates the inputs, builds the stores, computes the oracle
	// and runs one untimed warm-up round.
	setup() error
	// round runs the closed loop(s) for d. With a tracer the workload
	// records spans through its wrappers.
	round(d time.Duration, tr *tracer) (*roundSamples, error)
	// lanes is the number of load goroutines (tracer lanes).
	lanes() int
	// counters snapshots what the program exports.
	counters() counters
	// named derives the workload's named end-to-end metrics from one round
	// and the counter delta around it.
	named(r *roundSamples, d counters) map[string]float64
	// finish verifies what can only be verified after the timed section,
	// reports end-of-run measurements as extras, and releases everything.
	finish() (*roundSamples, error)
	// teardown releases everything without verifying.
	teardown()
	// ladder drives the workload's layers in isolation.
	ladder(out map[string]float64) error
	// layerMetrics derives the workload's own W and C per-layer metrics
	// from the untraced round, the counter delta around it, and the
	// traced round (for what only the wrappers see); out already holds
	// the ladder's numbers. It returns the estimated shares of the lead
	// op for layers that cannot be wrapped: count × isolated cost.
	layerMetrics(plain, traced *roundSamples, tr *tracer, d counters, out map[string]float64) map[string]float64
}

func newWorkload(name string, e env) (runner, error) {
	e.dir = filepath.Join(e.dir, name)
	switch name {
	case wlJoinWarm:
		return &joinWorkload{env: e, name: name}, nil
	case wlJoinCold:
		return &joinWorkload{env: e, name: name, cold: true}, nil
	case wlIngest:
		return &ingestWorkload{env: e}, nil
	case wlServe:
		return &serveWorkload{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// counters is a snapshot of the cumulative counters the program exports,
// summed over the workload's stores, plus the Go runtime's.
type counters struct {
	hits, misses, evictions                           float64
	reads, readCalls, writes                          float64
	commits, fsyncs, walBytes, pageImages, checkpoint float64
	allocBytes, gcCycles                              float64
}

func snapshotCounters(stores ...*xrtree.Store) counters {
	var c counters
	for _, s := range stores {
		ps, fs := s.PoolStats(), s.FileStats()
		c.hits += float64(ps.BufferHits)
		c.misses += float64(ps.BufferMisses)
		c.evictions += float64(ps.PageEvictions)
		c.reads += float64(fs.PhysicalReads)
		c.readCalls += float64(fs.ReadCalls)
		c.writes += float64(fs.PhysicalWrites)
		if ws, ok := s.WALStats(); ok {
			c.commits += float64(ws.Commits)
			c.fsyncs += float64(ws.Fsyncs)
			c.walBytes += float64(ws.Bytes)
			c.pageImages += float64(ws.PageImages)
			c.checkpoint += float64(ws.Checkpoints)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.allocBytes = float64(ms.TotalAlloc)
	c.gcCycles = float64(ms.NumGC)
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		hits: c.hits - o.hits, misses: c.misses - o.misses, evictions: c.evictions - o.evictions,
		reads: c.reads - o.reads, readCalls: c.readCalls - o.readCalls, writes: c.writes - o.writes,
		commits: c.commits - o.commits, fsyncs: c.fsyncs - o.fsyncs, walBytes: c.walBytes - o.walBytes,
		pageImages: c.pageImages - o.pageImages, checkpoint: c.checkpoint - o.checkpoint,
		allocBytes: c.allocBytes - o.allocBytes, gcCycles: c.gcCycles - o.gcCycles,
	}
}

// counterMetrics fills the per-layer metrics every workload derives the
// same way from a counter delta.
func counterMetrics(d counters, r *roundSamples, out map[string]float64) {
	ops := float64(r.storageOps)
	out["pagefile.reads_per_op"] = ratio(d.reads, ops)
	out["pagefile.read_calls_per_op"] = ratio(d.readCalls, ops)
	out["pagefile.writes_per_op"] = ratio(d.writes, ops)
	out["bufferpool.evictions_per_op"] = ratio(d.evictions, ops)
	out["bufferpool.hit_rate"] = ratio(d.hits, d.hits+d.misses)
	out["wal.fsyncs_per_insert"] = ratio(d.fsyncs, d.commits)
	out["wal.commits_per_fsync"] = ratio(d.commits, d.fsyncs)
	out["wal.checkpoints"] = d.checkpoint
	out["wal.page_images_per_insert"] = ratio(d.pageImages, d.commits)
	all := float64(len(r.lead) + len(r.side))
	out["runtime.alloc_kb_per_op"] = ratio(d.allocBytes/1024, all)
	out["runtime.gc_cycles"] = d.gcCycles
	out["fail_share"] = ratio(float64(r.failed), float64(r.attempted))
}

// result is one workload's outcome in one invocation.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Spread is (q3−q1)/median over the rounds, for metrics computed per
	// round; Samples is the sample count behind each latency metric.
	Spread  map[string]float64 `json:"spread,omitempty"`
	Samples map[string]int     `json:"samples,omitempty"`
	// Counts are the counter-derived per-layer metrics over the untraced
	// run's whole timed section: exact counts such as page reads per join
	// and checkpoints completed, shown without waiting for a traced run.
	Counts map[string]float64 `json:"counts,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
}

// roleMetrics are the driver's end-to-end metrics of one round.
func roleMetrics(name string, r *roundSamples) map[string]float64 {
	return map[string]float64{
		"lead_ms_p50":  median(r.lead),
		"lead_ms_tail": quantile(sortedCopy(r.lead), tailQuantile[name]),
		"lead_per_s":   float64(len(r.lead)) / r.elapsed.Seconds(),
		"side_ms_p50":  median(r.side),
	}
}

// runUntraced produces the end-to-end metrics of one workload.
func runUntraced(name string, e env, seconds float64) (*result, error) {
	res := &result{Workload: name, Metrics: map[string]float64{}, Spread: map[string]float64{}, Samples: map[string]int{}}
	var w runner
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.teardown()
		}
		var err error
		if w, err = newWorkload(name, e); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	perRound := map[string][]float64{"setup_s": setups}

	per := time.Duration(seconds / rounds * float64(time.Second))
	all := &roundSamples{}
	first := w.counters()
	for i := 0; i < rounds; i++ {
		runtime.GC()
		before := w.counters()
		r, err := w.round(per, nil)
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: round %d: %w", name, i+1, err)
		}
		d := w.counters().sub(before)
		for _, ms := range []map[string]float64{roleMetrics(name, r), w.named(r, d)} {
			for k, v := range ms {
				perRound[k] = append(perRound[k], v)
			}
		}
		all.merge(r)
	}
	delta := w.counters().sub(first)
	fin, err := w.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: verification: %w", name, err)
	}
	all.attempted += fin.attempted
	all.failed += fin.failed
	res.Counts = map[string]float64{}
	counterMetrics(delta, all, res.Counts)

	for k, vs := range perRound {
		res.Metrics[k] = median(vs)
		res.Spread[k] = spread(vs)
	}
	res.Metrics["fail_share"] = res.Counts["fail_share"]
	if v, ok := fin.extra["space_amp"]; ok {
		res.Metrics["space_amp"] = v[0]
	}
	res.Samples["lead"] = len(all.lead)
	res.Samples["side"] = len(all.side)
	beyond := float64(len(all.lead)) * (1 - tailQuantile[name])
	if beyond/rounds < 10 {
		// A round holds too few lead ops (join sweeps) for a tail of its
		// own: take the percentile over the whole run.
		res.Metrics["lead_ms_tail"] = quantile(sortedCopy(all.lead), tailQuantile[name])
	}
	if beyond < 10 {
		res.Notes = append(res.Notes, fmt.Sprintf("only %.0f samples beyond p%.0f of the lead op: the tail is under-sampled at this run length",
			beyond, tailQuantile[name]*100))
	}
	res.Attempted, res.Failed = all.attempted, all.failed
	return res, nil
}

// runTraced produces the per-layer metrics of one workload.
func runTraced(name string, e env, seconds float64, outDir string) (*result, error) {
	res := &result{Workload: name, Traced: true, Metrics: map[string]float64{}}
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, err
	}
	if err := w.setup(); err != nil {
		w.teardown()
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	per := time.Duration(seconds / 4 * float64(time.Second))

	runtime.GC()
	before := w.counters()
	plain, err := w.round(per, nil)
	if err != nil {
		w.teardown()
		return nil, fmt.Errorf("%s: untraced round: %w", name, err)
	}
	delta := w.counters().sub(before)

	runtime.GC()
	tr := newTracer(w.lanes())
	traced, err := w.round(per, tr)
	if err != nil {
		w.teardown()
		return nil, fmt.Errorf("%s: traced round: %w", name, err)
	}

	m := res.Metrics
	if err := w.ladder(m); err != nil {
		w.teardown()
		return nil, fmt.Errorf("%s: ladder: %w", name, err)
	}
	fin, err := w.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: verification: %w", name, err)
	}
	plain.merge(fin)
	counterMetrics(delta, plain, m)
	for k, v := range w.named(plain, delta) {
		m[k] = v
	}
	if v, ok := fin.extra["space_amp"]; ok {
		m["space_amp"] = v[0]
	}
	est := w.layerMetrics(plain, traced, tr, delta, m)
	m["traced.lead_ms_p50"] = median(traced.lead)
	m["traced.overhead_ratio"] = ratio(median(traced.lead), median(plain.lead))

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(outDir, "trace-"+name+".json"), name, e.seed, est); err != nil {
		return nil, err
	}
	fmt.Printf("\n%s — traced round (%d lead ops; untraced lead p50 %.4f ms, traced %.4f ms, ratio %.3f)\n",
		name, len(traced.lead), median(plain.lead), median(traced.lead), m["traced.overhead_ratio"])
	tr.printTable(os.Stdout, est)

	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	return res, nil
}

// printResult renders one workload's metrics as a text table.
func printResult(res *result) {
	specs := bounded
	if res.Traced {
		specs = perLayer
	}
	fmt.Printf("\n%s  (attempted %d, failed %d)\n", res.Workload, res.Attempted, res.Failed)
	for _, s := range specs {
		v, ok := res.Metrics[s.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-32s %14.6g %-7s", s.Name, v, s.Unit)
		if sp, ok := res.Spread[s.Name]; ok {
			line += fmt.Sprintf("  round spread %.3f", sp)
		}
		if res.Traced && !s.measuredOn(res.Workload) {
			line += "  (not measured on this workload)"
		} else if s.Moves != "" {
			line += fmt.Sprintf("  [%s → %s]", s.Src, s.Moves)
		}
		fmt.Println(line)
	}
	keys := make([]string, 0, len(res.Samples))
	for k := range res.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  samples: %s ops %d\n", k, res.Samples[k])
	}
	keys = keys[:0]
	for k := range res.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  count:   %-30s %.6g\n", k, res.Counts[k])
	}
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
}
