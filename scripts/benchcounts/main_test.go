package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fullRecord returns a record under toolchain goVersion that holds every
// counted metric at 1.
func fullRecord(goVersion string) *record {
	r := &record{Go: goVersion}
	for _, w := range counted {
		m := make(map[string]float64)
		for _, name := range w.metrics {
			m[name] = 1
		}
		r.Results = append(r.Results, struct {
			Workload string             `json:"workload"`
			Metrics  map[string]float64 `json:"metrics"`
		}{w.workload, m})
	}
	return r
}

func TestDiffNamesMovedCount(t *testing.T) {
	a, b := fullRecord("go1"), fullRecord("go1")
	if lines, skipped := diff(a, b, "A", "B"); len(lines) != 0 || skipped {
		t.Fatalf("equal records: lines %q, skipped %v", lines, skipped)
	}
	b.Results[1].Metrics["page_reads_per_join"] = 464.5
	delete(b.Results[0].Metrics, "join.scanned_per_pair")
	lines, _ := diff(a, b, "A", "B")
	want := []string{
		"join_warm join.scanned_per_pair: A 1, B missing",
		"join_cold page_reads_per_join: A 1, B 464.5",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("lines %q, want %q", lines, want)
	}
}

func TestDiffSkipsAllocsAcrossToolchains(t *testing.T) {
	a, b := fullRecord("go1.24.0"), fullRecord("go1.25.0")
	b.Results[0].Metrics["join.allocs_per_join"] = 8
	if lines, skipped := diff(a, b, "A", "B"); len(lines) != 0 || !skipped {
		t.Fatalf("lines %q, skipped %v; want none, skipped", lines, skipped)
	}
	b.Go = a.Go
	if lines, _ := diff(a, b, "A", "B"); len(lines) != 1 {
		t.Fatalf("same toolchain: lines %q, want the moved allocation count", lines)
	}
	// A few allocations elsewhere in the process during the measured loop
	// add a fraction of an allocation per call; a whole one more is a
	// change.
	b.Results[0].Metrics["join.allocs_per_join"] = 1.06
	if lines, _ := diff(a, b, "A", "B"); len(lines) != 0 {
		t.Fatalf("fractional allocation noise: lines %q, want none", lines)
	}
}

func TestNewestRecordsOrdersByNumber(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_9.trace.json", "BENCH_46.trace.json", "BENCH_45.json", "BENCH_x.trace.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := newestRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range paths {
		names = append(names, filepath.Base(p))
	}
	if got := strings.Join(names, " "); got != "BENCH_46.trace.json BENCH_9.trace.json" {
		t.Fatalf("records %s", got)
	}
}
