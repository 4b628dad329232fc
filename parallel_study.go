package xrtree

// The workers-speedup study for the parallel structural-join driver: build
// one collection of K independently generated Department documents, then
// run the same employee//name join at increasing worker counts and report
// wall time and speedup over the single-worker run. Structural joins never
// pair elements across documents (§2.2), so document partitioning keeps
// the output stream and every counter identical while spreading the work.
//
// Wall-clock speedup is hardware-dependent — a single-CPU machine cannot
// overlap CPU-bound partitions no matter how the driver schedules them —
// so the study also reports a modeled speedup: each document's join cost
// under the paper-style CostModel (Figure 8's derived-time proxy), list-
// scheduled onto the worker pool exactly as the driver dispatches tasks.
// The modeled makespan is deterministic, machine-independent, and shows
// how well DocId partitioning balances; wall time tracks it when real
// cores are available (see the CPUs field).

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"xrtree/internal/datagen"
)

// ParallelStudyConfig parameterizes RunParallelStudy.
type ParallelStudyConfig struct {
	Seed int64
	// Docs is the number of generated documents; default 8. Parallelism is
	// bounded by the document count, so keep Docs ≥ max(Workers).
	Docs int
	// Departments scales per-document size (department elements per doc);
	// default 25.
	Departments int
	// Workers is the sweep; default {1, 2, 4, 8}. The first entry is the
	// speedup baseline.
	Workers []int
	// Reps is the number of timed repetitions per worker count; the best
	// (minimum) wall time is kept. Default 3.
	Reps int
	// Alg selects the join algorithm; default AlgXRStack.
	Alg Algorithm
	// Model converts counted page misses and scans into the modeled
	// per-document cost (default DefaultCostModel).
	Model       CostModel
	PageSize    int
	BufferPages int
	PoolShards  int
}

func (c *ParallelStudyConfig) defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Docs <= 0 {
		c.Docs = 8
	}
	if c.Departments <= 0 {
		c.Departments = 25
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2, 4, 8}
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.Model == (CostModel{}) {
		c.Model = DefaultCostModel
	}
	if c.BufferPages == 0 {
		c.BufferPages = 512
	}
}

// ParallelStudyRow is one worker count's measurement.
type ParallelStudyRow struct {
	Workers int `json:"workers"`
	// WallMS is the best measured wall time; WallSpeedup is relative to the
	// first row. Meaningful only with ≥ Workers real CPUs.
	WallMS      float64 `json:"wall_ms"`
	WallSpeedup float64 `json:"wall_speedup"`
	// ModelMS is the list-scheduled makespan of the per-document modeled
	// costs on this many workers; ModelSpeedup is relative to the first row.
	ModelMS         float64 `json:"model_ms"`
	ModelSpeedup    float64 `json:"model_speedup"`
	Pairs           int64   `json:"pairs"`
	ElementsScanned int64   `json:"elements_scanned"`
}

// ParallelStudy is the full result of one workers sweep.
type ParallelStudy struct {
	// CPUs records runtime.NumCPU at measurement time: the hard ceiling on
	// wall-clock speedup.
	CPUs int `json:"cpus"`
	Docs int `json:"docs"`
	// TaskModelMS is the modeled join cost of each document, in task order
	// — the input to the makespan model.
	TaskModelMS []float64          `json:"task_model_ms"`
	Rows        []ParallelStudyRow `json:"rows"`
}

// modelMakespan list-schedules the task costs onto `workers` workers the
// way the driver dispatches them: in order, each to the earliest-free
// worker. Returns the makespan.
func modelMakespan(taskMS []float64, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	busy := make([]float64, workers)
	for _, t := range taskMS {
		min := 0
		for w := 1; w < workers; w++ {
			if busy[w] < busy[min] {
				min = w
			}
		}
		busy[min] += t
	}
	var span float64
	for _, b := range busy {
		if b > span {
			span = b
		}
	}
	return span
}

// RunParallelStudy builds the multi-document workload and sweeps the
// worker counts. Every run must produce the same pair count and scan
// count — the partitioned join does identical work, only scheduled
// differently — so the rows double as a correctness check.
func RunParallelStudy(cfg ParallelStudyConfig) (*ParallelStudy, error) {
	cfg.defaults()
	coll, err := buildParallelWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer coll.store.Close()

	run := func(workers int) (time.Duration, Stats, error) {
		var st Stats
		start := time.Now()
		err := coll.ParallelJoin(cfg.Alg, AncestorDescendant, "employee", "name",
			nil, &st, ParallelJoinOptions{Workers: workers})
		return time.Since(start), st, err
	}
	// Warm-up: builds and caches the per-document indexes so the timed runs
	// measure joining, not index construction.
	if _, _, err := run(1); err != nil {
		return nil, err
	}

	// Model input: each document's join measured alone, costed with the
	// paper-style model.
	study := &ParallelStudy{CPUs: runtime.NumCPU(), Docs: coll.Len()}
	for _, id := range coll.DocIDs() {
		var st Stats
		if err := coll.ParallelJoin(cfg.Alg, AncestorDescendant, "employee", "name", nil, &st,
			ParallelJoinOptions{Workers: 1, Keep: func(doc uint32) bool { return doc == id }}); err != nil {
			return nil, err
		}
		study.TaskModelMS = append(study.TaskModelMS,
			float64(cfg.Model.DerivedTime(&st).Microseconds())/1000)
	}

	for _, w := range cfg.Workers {
		var best time.Duration
		var st Stats
		for r := 0; r < cfg.Reps; r++ {
			d, s, err := run(w)
			if err != nil {
				return nil, err
			}
			if r == 0 || d < best {
				best, st = d, s
			}
		}
		study.Rows = append(study.Rows, ParallelStudyRow{
			Workers:         w,
			WallMS:          float64(best.Microseconds()) / 1000,
			ModelMS:         modelMakespan(study.TaskModelMS, w),
			Pairs:           st.OutputPairs,
			ElementsScanned: st.ElementsScanned,
		})
	}
	wallBase, modelBase := study.Rows[0].WallMS, study.Rows[0].ModelMS
	for i := range study.Rows {
		r := &study.Rows[i]
		if r.WallMS > 0 {
			r.WallSpeedup = wallBase / r.WallMS
		}
		if r.ModelMS > 0 {
			r.ModelSpeedup = modelBase / r.ModelMS
		}
	}
	return study, nil
}

func buildParallelWorkload(cfg ParallelStudyConfig) (*Collection, error) {
	store, err := NewMemStore(StoreOptions{
		PageSize: cfg.PageSize, BufferPages: cfg.BufferPages, PoolShards: cfg.PoolShards,
	})
	if err != nil {
		return nil, err
	}
	coll := store.NewCollection()
	for i := 0; i < cfg.Docs; i++ {
		doc, err := datagen.Department(datagen.DeptConfig{
			Seed:        cfg.Seed + int64(i)*7919,
			DocID:       uint32(i + 1),
			Departments: cfg.Departments,
		})
		if err != nil {
			store.Close()
			return nil, err
		}
		if err := coll.Add(doc); err != nil {
			store.Close()
			return nil, err
		}
	}
	return coll, nil
}

// FormatParallelStudy renders the workers sweep as a table.
func FormatParallelStudy(w io.Writer, s *ParallelStudy) error {
	fmt.Fprintf(w, "docs=%d cpus=%d\n", s.Docs, s.CPUs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workers\twall-ms\twall-speedup\tmodel-ms\tmodel-speedup\tpairs\tscanned")
	for _, r := range s.Rows {
		fmt.Fprintf(tw, "%d\t%.2f\t%.2fx\t%.2f\t%.2fx\t%d\t%d\n",
			r.Workers, r.WallMS, r.WallSpeedup, r.ModelMS, r.ModelSpeedup,
			r.Pairs, r.ElementsScanned)
	}
	return tw.Flush()
}
