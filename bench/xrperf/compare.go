package main

// xrperf -compare: one row per workload × bounded metric (the driver's
// five and the named ones, where the workload reports them), with each
// side's median and quartiles over its result files and a verdict against
// the metric's bound.
//
//	ok          B's median is not worse than A's by more than the bound
//	regressed   it is, and by more than the run-to-run spread
//	unresolved  the run-to-run spread exceeds the bound, so "no worse"
//	            cannot be told from noise
//	improved    B won ≥ 9/10 of at least ten (A[i], B[i]) pairs and the
//	            medians differ by more than A's inter-quartile distance
//
// With a single file per side there are no runs to take a spread over;
// the round-to-round spread recorded in the files stands in for it.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

type side struct {
	values map[string]map[string][]float64 // workload → metric → one value per file
	rounds map[string]map[string]float64   // workload → metric → largest round spread seen
}

func loadSide(list string) (*side, error) {
	s := &side{values: map[string]map[string][]float64{}, rounds: map[string]map[string]float64{}}
	for _, path := range strings.Split(list, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if f.Schema != "xrperf/1" {
			return nil, fmt.Errorf("%s: schema %q, want xrperf/1", path, f.Schema)
		}
		for _, r := range f.Results {
			if r.Traced {
				continue
			}
			if s.values[r.Workload] == nil {
				s.values[r.Workload] = map[string][]float64{}
				s.rounds[r.Workload] = map[string]float64{}
			}
			for name, v := range r.Metrics {
				s.values[r.Workload][name] = append(s.values[r.Workload][name], v)
				s.rounds[r.Workload][name] = math.Max(s.rounds[r.Workload][name], r.Spread[name])
			}
		}
	}
	return s, nil
}

// runSpread is the dispersion of a side's values: across runs when there
// are at least three, else the recorded round spread.
func (s *side) runSpread(workload, metric string) float64 {
	if vs := s.values[workload][metric]; len(vs) >= 3 {
		return spread(vs)
	}
	return s.rounds[workload][metric]
}

// verdict judges B against A for one metric.
func verdict(m metricSpec, a, b []float64, spreadA, spreadB float64) string {
	medA, medB := median(a), median(b)
	worse := ratio(medB-medA, math.Abs(medA))
	noise := math.Max(spreadA, spreadB)
	if m.Absolute {
		// A bound on the difference: the spread is a share of a median
		// that may be 0, so the inter-quartile distances stand in for it.
		q1a, q3a := quartiles(a)
		q1b, q3b := quartiles(b)
		worse, noise = medB-medA, math.Max(q3a-q1a, q3b-q1b)
	}
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound && worse > noise {
		return "regressed"
	}
	if pairs := min(len(a), len(b)); pairs >= 10 {
		wins, decided := 0, 0
		for i := 0; i < pairs; i++ {
			if a[i] == b[i] {
				continue
			}
			decided++
			if (b[i] < a[i]) == (m.Better == "lower") {
				wins++
			}
		}
		q1, q3 := quartiles(a)
		if decided > 0 && float64(wins) >= 0.9*float64(decided) && math.Abs(medB-medA) > q3-q1 {
			return "improved"
		}
	}
	if noise > m.Bound {
		return "unresolved"
	}
	return "ok"
}

func boundText(m metricSpec) string {
	if m.Absolute {
		return fmt.Sprintf("+%g", m.Bound)
	}
	return fmt.Sprintf("%.0f%%", 100*m.Bound)
}

func compareFiles(w io.Writer, listA, listB string) error {
	a, err := loadSide(listA)
	if err != nil {
		return err
	}
	b, err := loadSide(listB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tspread\tverdict")
	regressed := 0
	for _, wl := range workloadNames {
		for _, m := range bounded {
			va, vb := a.values[wl][m.Name], b.values[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := a.runSpread(wl, m.Name), b.runSpread(wl, m.Name)
			v := verdict(m, va, vb, sa, sb)
			if v == "regressed" {
				regressed++
			}
			q1a, q3a := quartiles(va)
			q1b, q3b := quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.1f%%\t%s\t%.1f%%\t%s\n",
				wl, m.Name, m.Unit, median(va), q1a, q3a, median(vb), q1b, q3b,
				100*ratio(median(vb)-median(va), math.Abs(median(va))), boundText(m), 100*math.Max(sa, sb), v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}
