package xrtree

// The experiment harness: one entry point per table/figure of the paper's
// §6 evaluation (plus the §3.3, §4 and §5 measurements), shared by
// cmd/xrbench and the root bench_test.go. Each sweep point builds the
// workload of the corresponding experiment, indexes both element sets in a
// fresh in-memory store, cold-starts the buffer pool, and runs every
// algorithm, reporting elements scanned (the metric of Tables 2–3), buffer
// misses and derived time (the Figure 8 proxy), and wall-clock time.

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"xrtree/internal/datagen"
	"xrtree/internal/workload"
)

// WorkloadStats reports the achieved selectivities of one sweep point.
type WorkloadStats = workload.Stats

// SelectivitySweep is the x-axis of the §6 experiments (90% … 1%).
var SelectivitySweep = workload.SelectivitySweep

// ExperimentConfig parameterizes the sweeps.
type ExperimentConfig struct {
	// Seed makes corpora and workloads deterministic. Default 1.
	Seed int64
	// Scale multiplies the corpus sizes; 1.0 is the harness default
	// (laptop-friendly; the paper used ~90 MB per corpus).
	Scale float64
	// PageSize and BufferPages configure the store (defaults 4096 / 100).
	PageSize    int
	BufferPages int
	// Sweep overrides the selectivity points (default SelectivitySweep).
	Sweep []float64
	// Algorithms overrides the algorithm list (default Algorithms).
	Algorithms []Algorithm
	// Model converts misses/scans to derived time (default DefaultCostModel).
	Model CostModel
	// Mode selects the join relationship (default AncestorDescendant).
	Mode Mode
	// Observe attaches a fresh event Collector to every measured join and
	// fills the observability fields of each AlgResult (phase breakdown,
	// event histograms, skipping effectiveness).
	Observe bool
}

func (c *ExperimentConfig) defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if len(c.Sweep) == 0 {
		c.Sweep = SelectivitySweep
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = Algorithms
	}
	if c.Model == (CostModel{}) {
		c.Model = DefaultCostModel
	}
}

// AlgResult is one algorithm's measured cost at one sweep point. The
// observability fields are populated only when ExperimentConfig.Observe is
// set.
type AlgResult struct {
	Alg     Algorithm
	Stats   Stats
	Derived time.Duration // Model-derived time (the Figure 8 proxy)

	// Phases is the per-phase breakdown of the traced join (nil without
	// Observe).
	Phases *JoinPhases
	// Events is the raw per-event trace snapshot (nil without Observe).
	Events *TraceSnapshot
	// SkipEffectiveness is 1 − scanned/(|A|+|D|) (0 without Observe).
	SkipEffectiveness float64
}

// SweepPoint is one x-axis point of a sweep.
type SweepPoint struct {
	Label    string
	Target   float64
	Workload WorkloadStats
	Results  []AlgResult
}

// SweepResult is one corpus's full sweep.
type SweepResult struct {
	Corpus string
	Points []SweepPoint
}

// sweepKind selects which §6 workload builder a sweep uses.
type sweepKind int

const (
	sweepAncestor sweepKind = iota
	sweepDescendant
	sweepBoth
)

// RunAncestorSweep reproduces Table 2 and Figure 8(a)(b): 99% of
// descendants join while the fraction of joining ancestors varies.
func RunAncestorSweep(cfg ExperimentConfig) ([]SweepResult, error) {
	return runSweep(cfg, sweepAncestor)
}

// RunDescendantSweep reproduces Table 3 and Figure 8(c)(d): 99% of
// ancestors join while the fraction of joining descendants varies.
func RunDescendantSweep(cfg ExperimentConfig) ([]SweepResult, error) {
	return runSweep(cfg, sweepDescendant)
}

// RunBothSweep reproduces Figure 8(e)(f): both selectivities vary together
// with the set sizes held constant by dummy padding.
func RunBothSweep(cfg ExperimentConfig) ([]SweepResult, error) {
	return runSweep(cfg, sweepBoth)
}

func runSweep(cfg ExperimentConfig, kind sweepKind) ([]SweepResult, error) {
	cfg.defaults()
	corpora, err := datagen.PaperCorpora(cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, err
	}
	var out []SweepResult
	for _, corpus := range corpora {
		baseA := corpus.Doc.ElementsByTag(corpus.AncestorTag)
		baseD := corpus.Doc.ElementsByTag(corpus.DescendantTag)
		res := SweepResult{Corpus: corpus.Name}
		for _, pct := range cfg.Sweep {
			var sets workload.Sets
			switch kind {
			case sweepAncestor:
				sets = workload.VaryAncestorSelectivity(baseA, baseD, pct, 0.99, cfg.Seed)
			case sweepDescendant:
				sets = workload.VaryDescendantSelectivity(baseA, baseD, pct, 0.99, cfg.Seed)
			case sweepBoth:
				sets = workload.VaryBothSelectivity(baseA, baseD, pct, cfg.Seed)
			}
			point, err := runPoint(cfg, pct, sets)
			if err != nil {
				return nil, fmt.Errorf("%s at %.0f%%: %w", corpus.Name, pct*100, err)
			}
			res.Points = append(res.Points, point)
		}
		out = append(out, res)
	}
	return out, nil
}

// runPoint measures every algorithm on one workload in a fresh store.
func runPoint(cfg ExperimentConfig, pct float64, sets workload.Sets) (SweepPoint, error) {
	point := SweepPoint{
		Label:    fmt.Sprintf("%d%%", int(pct*100+0.5)),
		Target:   pct,
		Workload: workload.Measure(sets),
	}
	store, err := NewMemStore(StoreOptions{
		PageSize:    cfg.PageSize,
		BufferPages: cfg.BufferPages,
	})
	if err != nil {
		return point, err
	}
	defer store.Close()
	a, err := store.IndexElements(sets.A, IndexOptions{})
	if err != nil {
		return point, err
	}
	d, err := store.IndexElements(sets.D, IndexOptions{})
	if err != nil {
		return point, err
	}
	for _, alg := range cfg.Algorithms {
		if err := store.DropCache(); err != nil {
			return point, err
		}
		r := AlgResult{Alg: alg}
		if cfg.Observe {
			rep, err := ObservedJoin(alg, cfg.Mode, a, d, nil, nil)
			if err != nil {
				return point, fmt.Errorf("%s: %w", alg, err)
			}
			r.Stats, r.Phases, r.Events = rep.Stats, &rep.Phases, &rep.Events
			r.SkipEffectiveness = rep.SkipEffectiveness
		} else {
			store.AttachStats(&r.Stats)
			err := Join(alg, cfg.Mode, a, d, nil, &r.Stats)
			store.AttachStats(nil)
			if err != nil {
				return point, fmt.Errorf("%s: %w", alg, err)
			}
		}
		r.Derived = cfg.Model.DerivedTime(&r.Stats)
		point.Results = append(point.Results, r)
	}
	return point, nil
}

// FormatScannedTable renders a sweep the way Tables 2 and 3 do: one row per
// selectivity, one column per algorithm, values in thousands of elements
// scanned.
func FormatScannedTable(w io.Writer, res SweepResult, axis string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\t", axis)
	for _, r := range res.Points[0].Results {
		fmt.Fprintf(tw, "%s\t", r.Alg)
	}
	fmt.Fprintf(tw, "|A|\t|D|\tpairs\n")
	for _, p := range res.Points {
		fmt.Fprintf(tw, "%s\t", p.Label)
		for _, r := range p.Results {
			fmt.Fprintf(tw, "%.1fk\t", float64(r.Stats.ElementsScanned)/1000)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\n", p.Workload.NumA, p.Workload.NumD, p.Workload.Pairs)
	}
	return tw.Flush()
}

// WriteCSV emits a sweep as one CSV row per (selectivity, algorithm) cell —
// the plotting-friendly form of the tables and figures.
func WriteCSV(w io.Writer, res SweepResult, axis string) error {
	if _, err := fmt.Fprintf(w, "corpus,%s,algorithm,scanned,misses,derived_ms,wall_ms,numA,numD,pairs\n", axis); err != nil {
		return err
	}
	for _, p := range res.Points {
		for _, r := range p.Results {
			_, err := fmt.Fprintf(w, "%q,%s,%s,%d,%d,%.3f,%.3f,%d,%d,%d\n",
				res.Corpus, p.Label, r.Alg,
				r.Stats.ElementsScanned, r.Stats.BufferMisses,
				float64(r.Derived.Microseconds())/1000,
				float64(r.Stats.Elapsed.Microseconds())/1000,
				p.Workload.NumA, p.Workload.NumD, p.Workload.Pairs)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// FormatTimeTable renders a sweep the way Figure 8 does: derived time (from
// page misses) plus measured wall-clock per algorithm.
func FormatTimeTable(w io.Writer, res SweepResult, axis string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\t", axis)
	for _, r := range res.Points[0].Results {
		fmt.Fprintf(tw, "%s(derived)\t%s(misses)\t%s(wall)\t", r.Alg, r.Alg, r.Alg)
	}
	fmt.Fprintln(tw)
	for _, p := range res.Points {
		fmt.Fprintf(tw, "%s\t", p.Label)
		for _, r := range p.Results {
			fmt.Fprintf(tw, "%v\t%d\t%v\t",
				r.Derived.Round(time.Millisecond), r.Stats.BufferMisses,
				r.Stats.Elapsed.Round(100*time.Microsecond))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
