package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// shortScale keeps every workload's untraced and traced run under 5 s.
var shortScale = scale{joinElems: 2048, collDocs: 4, collDepts: 2, collEmps: [2]int{250, 400}, ingestElems: 8000, serveDocs: 8, serveEmps: [2]int{30, 80}, serveSetElems: 2000}

func TestMain(m *testing.M) {
	ladderDiv = 20
	os.Exit(m.Run())
}

func testEnv(t *testing.T, seed int64) env {
	return env{seed: seed, scale: shortScale, dir: t.TempDir()}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSchema runs every workload untraced and traced at the short scale
// and checks that the metrics it emits are exactly those BENCHMARK.json
// declares, in both directions, within the contract's limits.
func TestSchema(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(bj.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bj.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bj.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	check := func(kind, name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s metric name %q is outside the contract's alphabet", kind, name)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("%s metric %s: unit %q is outside the contract's alphabet", kind, name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s metric %s: better is %q", kind, name, better)
		}
		if seen[name] {
			t.Errorf("metric name %s is used twice", name)
		}
		seen[name] = true
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		check("end-to-end", m.Name, m.Unit, m.Better)
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		check("per-layer", m.Name, m.Unit, m.Better)
		if s := perLayer[i]; m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %s %s %s", i, m, s.Name, s.Unit, s.Better)
		}
	}

	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			e := testEnv(t, 1)
			res, err := runUntraced(name, e, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			declared := map[string]bool{}
			for _, s := range endToEnd {
				declared[s.Name] = true
				if v, ok := res.Metrics[s.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v): must be emitted and never 0", s.Name, v, ok)
				}
			}
			for _, s := range named {
				declared[s.Name] = s.measuredOn(name)
				if v, ok := res.Metrics[s.Name]; ok != s.measuredOn(name) || (ok && v <= 0 && s.Name != "fail_share") {
					t.Errorf("named metric %s = %v (present %v, measured on %s: %v)", s.Name, v, ok, name, s.measuredOn(name))
				}
			}
			for got := range res.Metrics {
				if !declared[got] {
					t.Errorf("untraced run emitted undeclared metric %s", got)
				}
			}

			tres, err := runTraced(name, e, 1, filepath.Join(e.dir, "out"))
			if err != nil {
				t.Fatal(err)
			}
			if tres.Failed != 0 {
				t.Errorf("traced run: %d of %d operations failed", tres.Failed, tres.Attempted)
			}
			declared = map[string]bool{}
			for _, s := range perLayer {
				declared[s.Name] = true
				if _, ok := tres.Metrics[s.Name]; s.measuredOn(name) && !ok {
					t.Errorf("per-layer metric %s is declared for %s but was not emitted", s.Name, name)
				}
			}
			for got := range tres.Metrics {
				if !declared[got] {
					t.Errorf("traced run emitted undeclared metric %s", got)
				}
			}
			if _, err := os.Stat(filepath.Join(e.dir, "out", "trace-"+name+".json")); err != nil {
				t.Error(err)
			}
			t.Logf("%s: untraced + traced in %v", name, time.Since(start).Round(time.Millisecond))
		})
	}
}

// joinFingerprint is what must repeat exactly for one seed.
type joinFingerprint struct {
	want     []pairSum
	collWant pairSum
	scanned  float64
	reads    float64
}

func fingerprint(t *testing.T, name string, seed int64) joinFingerprint {
	t.Helper()
	w, err := newWorkload(name, testEnv(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	jw := w.(*joinWorkload)
	before := jw.counters()
	r := &roundSamples{}
	if err := jw.iteration(r, nil); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d of %d joins failed", r.failed, r.attempted)
	}
	d := jw.counters().sub(before)
	return joinFingerprint{want: jw.want, collWant: jw.collWant, scanned: r.extra["headline.scanned"][0], reads: d.reads / float64(r.storageOps)}
}

// TestDeterminism: the same seed gives the same inputs, page reads per
// join, elements scanned and pair checksums; another seed gives others.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{wlJoinWarm, wlJoinCold} {
		a, b, other := fingerprint(t, name, 3), fingerprint(t, name, 3), fingerprint(t, name, 4)
		if a.collWant != b.collWant || a.scanned != b.scanned || a.reads != b.reads {
			t.Errorf("%s: seed 3 twice: %+v vs %+v", name, a, b)
		}
		for i := range a.want {
			if a.want[i] != b.want[i] {
				t.Errorf("%s: %s: pair checksum differs between two runs of seed 3", name, sweepKinds[i].name)
			}
		}
		if a.collWant == other.collWant || a.want[0] == other.want[0] {
			t.Errorf("%s: seeds 3 and 4 produced the same join results", name)
		}
		if name == wlJoinCold && a.reads == 0 {
			t.Errorf("%s: no page reads per join", name)
		}
		if name == wlJoinWarm && a.reads != 0 {
			t.Errorf("%s: %v page reads per join, want 0", name, a.reads)
		}
	}
}

func writeResult(t *testing.T, dir, name string, value float64, roundSpread float64) string {
	t.Helper()
	f := resultFile{Schema: "xrperf/1", Results: []*result{{
		Workload: wlJoinWarm,
		Metrics:  map[string]float64{"lead_ms_p50": value, "sweep_ms_p50": value},
		Spread:   map[string]float64{"lead_ms_p50": roundSpread, "sweep_ms_p50": roundSpread},
	}}}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	lead := endToEnd[1] // lead_ms_p50, lower is better, bound 0.20
	if lead.Name != "lead_ms_p50" {
		t.Fatal("endToEnd[1] is not lead_ms_p50")
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", steady, steady, "ok"},
		{"within bound", steady, shift(steady, 1.1), "ok"},
		{"beyond bound", steady, shift(steady, 1.3), "regressed"},
		{"clear win", steady, shift(steady, 0.8), "improved"},
		{"noisy", []float64{100, 140, 70, 120, 90}, []float64{105, 75, 135, 95, 125}, "unresolved"},
	} {
		if got := verdict(lead, tc.a, tc.b, spread(tc.a), spread(tc.b)); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}

	// fail_share is bounded by a difference, not a share of the median.
	var fail metricSpec
	for _, m := range named {
		if m.Name == "fail_share" {
			fail = m
		}
	}
	zero := make([]float64, 5)
	if got := verdict(fail, zero, zero, 0, 0); got != "ok" {
		t.Errorf("fail_share 0 → 0: verdict %q, want ok", got)
	}
	if got := verdict(fail, zero, []float64{0.01, 0.01, 0.01, 0.01, 0.01}, 0, 0); got != "regressed" {
		t.Errorf("fail_share 0 → 0.01: verdict %q, want regressed", got)
	}

	// One file per side: the recorded round spread stands in for the
	// run-to-run spread.
	var out bytes.Buffer
	a := writeResult(t, dir, "a.json", 100, 0.02)
	if err := compareFiles(&out, a, writeResult(t, dir, "b.json", 104, 0.02)); err != nil {
		t.Errorf("4%% slower within a 10%% bound: %v\n%s", err, out.String())
	}
	out.Reset()
	// 15 % slower: within lead_ms_p50's bound, beyond sweep_ms_p50's.
	if err := compareFiles(&out, a, writeResult(t, dir, "b15.json", 115, 0.02)); err == nil || strings.Count(out.String(), "regressed") != 1 {
		t.Errorf("15%% slower should regress sweep_ms_p50 alone (err %v)\n%s", err, out.String())
	}
	if err := compareFiles(&out, a, writeResult(t, dir, "c.json", 130, 0.02)); err == nil {
		t.Errorf("30%% slower was not reported as a regression\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, a, writeResult(t, dir, "d.json", 104, 0.4)); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("round spread above the bound should read unresolved (err %v)\n%s", err, out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer(1)
	tr.clock = 0
	l := tr.lanes[0]
	root := l.begin("op")
	child := l.begin("child")
	l.aggregate("cheap", l.now(), l.now(), 7, 3)
	l.end(child)
	l.endOp(root)
	tab := tr.table()
	if got := tab["child"].Self; got != tab["child"].Busy-7 {
		t.Errorf("child self %d, want busy %d − 7", got, tab["child"].Busy)
	}
	if got := tab["op"].Self; got != tab["op"].Busy-tab["child"].Busy {
		t.Errorf("op self %d, want busy %d − child busy %d", got, tab["op"].Busy, tab["child"].Busy)
	}
	if tab["cheap"].Calls != 3 || len(l.kept) != 3 || l.kept[2].Parent != l.kept[1].ID {
		t.Errorf("aggregate child misfiled: %+v", l.kept)
	}
}
