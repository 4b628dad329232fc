// Command benchcounts checks that no counted metric of the benchmark moved.
//
//	go run ./scripts/benchcounts            # a short traced pass vs the newest record
//	go run ./scripts/benchcounts -records   # the two newest records vs each other
//
// The first form runs `go run -C bench ./xrperf -seed 1 -seconds 1 -trace 1`
// into a temporary directory and compares the counted metrics of its result
// with those of the newest committed BENCH_<n>.trace.json. It exits 1 on any
// difference, naming the workload, the metric and both values. The second
// form prints the same diff between the two newest records and exits 0.
//
// A counted metric is a page, probe or allocation count, or a ratio of
// counts, that depends only on the seed and the code: a one-second pass
// reproduces the 20-second record exactly. Timings, and the counts that
// depend on what the timed window ran (write_amp, space_amp on
// ingest_durable, wal.page_images_per_insert, server.encode_bytes_per_req),
// are not counted. Allocation counts can change with the Go release, so
// they are compared only when both records name the same toolchain, and
// in whole allocations per call: xrperf counts the whole process's mallocs
// over its measured loop, and join.allocs_per_join on join_warm reads 7.06
// instead of 7 in about half of the passes of one build, a few allocations
// in 100 calls that the join's code does not make.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// counted lists each workload's counted metrics.
var counted = []struct {
	workload string
	metrics  []string
}{
	{"join_warm", []string{
		"btree.pages_per_lookup", "bufferpool.allocs_per_fetch", "bufferpool.hit_rate",
		"core.allocs_per_probe", "core.pages_per_probe", "core.stab_pages_per_probe",
		"join.allocs_per_join", "join.scanned_per_pair", "join.skip_effectiveness",
	}},
	{"join_cold", []string{
		"bufferpool.evictions_per_op", "bufferpool.hit_rate",
		"join.allocs_per_join", "join.scanned_per_pair", "join.skip_effectiveness",
		"page_reads_per_join", "pagefile.read_calls_per_op", "pagefile.reads_per_op", "space_amp",
	}},
	{"ingest_durable", []string{
		"bufferpool.allocs_per_fetch", "bufferpool.hit_rate", "core.allocs_per_probe",
		"core.pages_per_probe", "core.stab_pages_per_probe", "wal.bytes_per_commit",
	}},
	{"serve_mixed", []string{
		"bufferpool.hit_rate", "cluster.subrequests_per_req",
	}},
}

// allocs are the allocation counts among the counted metrics.
var allocs = map[string]bool{
	"bufferpool.allocs_per_fetch": true,
	"core.allocs_per_probe":       true,
	"join.allocs_per_join":        true,
}

// record is the part of an xrperf result file that the check reads.
type record struct {
	Go      string `json:"go"`
	Results []struct {
		Workload string             `json:"workload"`
		Metrics  map[string]float64 `json:"metrics"`
	} `json:"results"`
}

func (r *record) metric(workload, name string) (float64, bool) {
	for _, res := range r.Results {
		if res.Workload == workload {
			v, ok := res.Metrics[name]
			return v, ok
		}
	}
	return 0, false
}

// diff returns one line per counted metric whose value differs between
// records a and b, named an and bn, and whether it skipped the allocation
// counts because the records name different toolchains.
func diff(a, b *record, an, bn string) (lines []string, skippedAllocs bool) {
	skippedAllocs = a.Go != b.Go
	for _, w := range counted {
		for _, m := range w.metrics {
			if skippedAllocs && allocs[m] {
				continue
			}
			va, oka := a.metric(w.workload, m)
			vb, okb := b.metric(w.workload, m)
			if oka && okb && (va == vb || allocs[m] && math.Round(va) == math.Round(vb)) {
				continue
			}
			lines = append(lines, fmt.Sprintf("%s %s: %s %s, %s %s",
				w.workload, m, an, show(va, oka), bn, show(vb, okb)))
		}
	}
	return lines, skippedAllocs
}

func show(v float64, ok bool) string {
	if !ok {
		return "missing"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// newestRecords returns the paths of the committed trace records in dir,
// newest (highest n) first.
func newestRecords(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.trace.json"))
	if err != nil {
		return nil, err
	}
	type numbered struct {
		n    int
		path string
	}
	var recs []numbered
	for _, p := range paths {
		s := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".trace.json")
		if n, err := strconv.Atoi(s); err == nil {
			recs = append(recs, numbered{n, p})
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].n > recs[j].n })
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.path
	}
	return out, nil
}

func load(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// shortPass runs the one-second traced pass of the benchmark and returns
// its result.
func shortPass(goCmd string) (*record, error) {
	tmp, err := os.MkdirTemp("", "benchcounts-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cmd := exec.Command(goCmd, "run", "-C", "bench", "./xrperf", "-seed", "1", "-seconds", "1", "-trace", "1", "-out", tmp)
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("xrperf: %v\n%s", err, out)
	}
	return load(filepath.Join(tmp, "result-trace.json"))
}

func main() {
	var (
		records = flag.Bool("records", false, "print the diff between the two newest records instead of checking a fresh pass")
		goCmd   = flag.String("go", "go", "go command that runs the benchmark")
	)
	flag.Parse()
	if err := run(*records, *goCmd); err != nil {
		fmt.Fprintln(os.Stderr, "benchcounts:", err)
		os.Exit(1)
	}
}

// run checks a fresh pass, or with records the newest record, against the
// newest record, or the one before it; records are read from the working
// directory, the repository's root.
func run(records bool, goCmd string) error {
	paths, err := newestRecords(".")
	if err != nil {
		return err
	}
	need := 1
	if records {
		need = 2
	}
	if len(paths) < need {
		return fmt.Errorf("%d BENCH_<n>.trace.json records in the working directory, need %d", len(paths), need)
	}
	base, err := load(paths[0])
	if err != nil {
		return err
	}
	baseName := filepath.Base(paths[0])

	var a, b *record
	var an, bn string
	if records {
		if a, err = load(paths[1]); err != nil {
			return err
		}
		an, b, bn = filepath.Base(paths[1]), base, baseName
	} else {
		if b, err = shortPass(goCmd); err != nil {
			return err
		}
		a, an, bn = base, baseName, "run"
	}
	lines, skipped := diff(a, b, an, bn)
	if skipped {
		fmt.Printf("benchcounts: allocation counts not compared (%s %s, %s %s)\n", an, a.Go, bn, b.Go)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	if len(lines) == 0 {
		fmt.Printf("benchcounts: no counted metric moved (%s vs %s)\n", an, bn)
		return nil
	}
	if records {
		return nil
	}
	return fmt.Errorf("%d counted metrics moved", len(lines))
}
