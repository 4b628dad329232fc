package xrtree_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"xrtree"
	"xrtree/internal/datagen"
)

const sampleXML = `<dept>
  <emp><name/><emp><emp><name/></emp></emp></emp>
  <emp><name/></emp>
  <office/>
</dept>`

func memStore(t *testing.T) *xrtree.Store {
	t.Helper()
	s, err := xrtree.NewMemStore(xrtree.StoreOptions{PageSize: 512, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestEndToEndQuickFlow(t *testing.T) {
	doc, err := xrtree.ParseXML(strings.NewReader(sampleXML), 1)
	if err != nil {
		t.Fatalf("ParseXML: %v", err)
	}
	store := memStore(t)
	emps, err := store.IndexElements(doc.ElementsByTag("emp"), xrtree.IndexOptions{})
	if err != nil {
		t.Fatalf("IndexElements(emp): %v", err)
	}
	names, err := store.IndexElements(doc.ElementsByTag("name"), xrtree.IndexOptions{})
	if err != nil {
		t.Fatalf("IndexElements(name): %v", err)
	}

	// emp//name: every name is under at least one emp; the doubly nested
	// name matches three emps.
	for _, alg := range []xrtree.Algorithm{xrtree.AlgNoIndex, xrtree.AlgMPMGJN, xrtree.AlgBPlus, xrtree.AlgXRStack} {
		pairs, err := joinPairs(alg, xrtree.AncestorDescendant, emps, names)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(pairs) != 5 {
			t.Errorf("%s: emp//name = %d pairs, want 5", alg, len(pairs))
		}
	}
	// emp/name: direct children only.
	pairs, err := joinPairs(xrtree.AlgXRStack, xrtree.ParentChild, emps, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Errorf("emp/name = %d pairs, want 3", len(pairs))
	}
}

func TestAlgorithmsAgreeOnCorpus(t *testing.T) {
	corpora, err := datagen.PaperCorpora(3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, corpus := range corpora {
		store := memStore(t)
		a, err := store.IndexElements(corpus.Doc.ElementsByTag(corpus.AncestorTag), xrtree.IndexOptions{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := store.IndexElements(corpus.Doc.ElementsByTag(corpus.DescendantTag), xrtree.IndexOptions{})
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[xrtree.Algorithm]int64)
		for _, alg := range []xrtree.Algorithm{xrtree.AlgNoIndex, xrtree.AlgMPMGJN, xrtree.AlgBPlus, xrtree.AlgBPlusSP, xrtree.AlgXRStack} {
			var st xrtree.Stats
			if err := xrtree.Join(alg, xrtree.AncestorDescendant, a, d, nil, &st); err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			counts[alg] = st.OutputPairs
		}
		for alg, n := range counts {
			if n != counts[xrtree.AlgNoIndex] {
				t.Errorf("%s: %s produced %d pairs, no-index produced %d",
					corpus.Name, alg, n, counts[xrtree.AlgNoIndex])
			}
		}
		if counts[xrtree.AlgNoIndex] == 0 {
			t.Errorf("%s: no pairs at all", corpus.Name)
		}
	}
}

func TestFindAncestorsDescendantsAPI(t *testing.T) {
	doc, err := xrtree.ParseXML(strings.NewReader(sampleXML), 1)
	if err != nil {
		t.Fatal(err)
	}
	store := memStore(t)
	emps, err := store.IndexElements(doc.ElementsByTag("emp"), xrtree.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	names := doc.ElementsByTag("name")
	deepest := names[1] // the name under emp>emp>emp
	anc, err := emps.FindAncestors(deepest.Start, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(anc) != 3 {
		t.Errorf("FindAncestors = %d, want 3", len(anc))
	}
	root := doc.ElementsByTag("emp")[0]
	des, err := emps.FindDescendants(root.Start, root.End, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 2 {
		t.Errorf("FindDescendants = %d, want 2", len(des))
	}
}

func TestSkippedAccessPathsError(t *testing.T) {
	doc, _ := xrtree.ParseXML(strings.NewReader(sampleXML), 1)
	store := memStore(t)
	a, err := store.IndexElements(doc.ElementsByTag("emp"), xrtree.IndexOptions{SkipBTree: true, SkipXRTree: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.IndexElements(doc.ElementsByTag("name"), xrtree.IndexOptions{SkipBTree: true, SkipXRTree: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := xrtree.Join(xrtree.AlgBPlus, xrtree.AncestorDescendant, a, d, nil, nil); !errors.Is(err, xrtree.ErrNoAccessPath) {
		t.Errorf("BPlus without B+-tree: err = %v", err)
	}
	if err := xrtree.Join(xrtree.AlgXRStack, xrtree.AncestorDescendant, a, d, nil, nil); !errors.Is(err, xrtree.ErrNoAccessPath) {
		t.Errorf("XRStack without XR-tree: err = %v", err)
	}
	if err := xrtree.Join(xrtree.AlgNoIndex, xrtree.AncestorDescendant, a, d, nil, nil); err != nil {
		t.Errorf("NoIndex with lists: %v", err)
	}
	if _, err := a.FindAncestors(5, nil); !errors.Is(err, xrtree.ErrNoAccessPath) {
		t.Errorf("FindAncestors without XR-tree: %v", err)
	}
}

func TestDiskBackedStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "xr.db")
	store, err := xrtree.CreateStore(path, xrtree.StoreOptions{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := xrtree.ParseXML(strings.NewReader(sampleXML), 1)
	a, err := store.IndexElements(doc.ElementsByTag("emp"), xrtree.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.IndexElements(doc.ElementsByTag("name"), xrtree.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := joinPairs(xrtree.AlgXRStack, xrtree.AncestorDescendant, a, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Errorf("pairs = %d, want 5", len(pairs))
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBuildEqualsBulkLoad(t *testing.T) {
	corpora, err := datagen.PaperCorpora(5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	doc := corpora[0].Doc
	els := doc.ElementsByTag("employee")
	store := memStore(t)
	bulk, err := store.IndexElements(els, xrtree.IndexOptions{SkipList: true, SkipBTree: true})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := store.IndexElements(els, xrtree.IndexOptions{SkipList: true, SkipBTree: true, InsertBuild: true})
	if err != nil {
		t.Fatal(err)
	}
	probes := doc.ElementsByTag("name")
	if len(probes) > 50 {
		probes = probes[:50]
	}
	for _, probe := range probes {
		a1, err := bulk.FindAncestors(probe.Start, nil)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := ins.FindAncestors(probe.Start, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a1) != len(a2) {
			t.Fatalf("probe %d: bulk %d ancestors, insert-built %d", probe.Start, len(a1), len(a2))
		}
	}
	bx, _ := bulk.XRTree()
	ix, _ := ins.XRTree()
	if err := bx.CheckInvariants(); err != nil {
		t.Errorf("bulk invariants: %v", err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Errorf("insert-built invariants: %v", err)
	}
}

func TestRunAncestorSweepSmall(t *testing.T) {
	res, err := xrtree.RunAncestorSweep(xrtree.ExperimentConfig{
		Seed: 1, Scale: 0.05, PageSize: 1024, Sweep: []float64{0.90, 0.25, 0.01},
	})
	if err != nil {
		t.Fatalf("RunAncestorSweep: %v", err)
	}
	if len(res) != 2 {
		t.Fatalf("corpora = %d, want 2", len(res))
	}
	for _, r := range res {
		if len(r.Points) != 3 {
			t.Fatalf("%s: points = %d", r.Corpus, len(r.Points))
		}
		// Every algorithm must emit the same number of pairs at every point.
		for _, p := range r.Points {
			for _, ar := range p.Results[1:] {
				if ar.Stats.OutputPairs != p.Results[0].Stats.OutputPairs {
					t.Errorf("%s %s: %s pairs %d != %d", r.Corpus, p.Label, ar.Alg,
						ar.Stats.OutputPairs, p.Results[0].Stats.OutputPairs)
				}
			}
		}
		// Shape check: XR-stack scans no more than no-index at the lowest
		// selectivity (it skips; no-index cannot). Only meaningful when the
		// workload is big enough that constant overheads don't dominate.
		last := r.Points[len(r.Points)-1]
		if last.Workload.NumA+last.Workload.NumD > 500 {
			nidx, xrs := findAlg(t, last, xrtree.AlgNoIndex), findAlg(t, last, xrtree.AlgXRStack)
			if xrs.Stats.ElementsScanned > nidx.Stats.ElementsScanned {
				t.Errorf("%s at %s: XR scanned %d > no-index %d", r.Corpus, last.Label,
					xrs.Stats.ElementsScanned, nidx.Stats.ElementsScanned)
			}
		}
		var buf bytes.Buffer
		if err := xrtree.FormatScannedTable(&buf, r, "Join-A"); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "XR-stack") {
			t.Error("table missing XR-stack column")
		}
		if err := xrtree.FormatTimeTable(&buf, r, "Join-A"); err != nil {
			t.Fatal(err)
		}
	}
}

func findAlg(t *testing.T, p xrtree.SweepPoint, alg xrtree.Algorithm) xrtree.AlgResult {
	t.Helper()
	for _, r := range p.Results {
		if r.Alg == alg {
			return r
		}
	}
	t.Fatalf("algorithm %s missing", alg)
	return xrtree.AlgResult{}
}

func TestRunDescendantAndBothSweepsSmall(t *testing.T) {
	cfg := xrtree.ExperimentConfig{Seed: 2, Scale: 0.04, PageSize: 1024, Sweep: []float64{0.55, 0.05}}
	res, err := xrtree.RunDescendantSweep(cfg)
	if err != nil {
		t.Fatalf("RunDescendantSweep: %v", err)
	}
	for _, r := range res {
		for _, p := range r.Points {
			for _, ar := range p.Results[1:] {
				if ar.Stats.OutputPairs != p.Results[0].Stats.OutputPairs {
					t.Errorf("%s %s: pair mismatch", r.Corpus, p.Label)
				}
			}
		}
	}
	both, err := xrtree.RunBothSweep(cfg)
	if err != nil {
		t.Fatalf("RunBothSweep: %v", err)
	}
	for _, r := range both {
		for _, p := range r.Points {
			// Sizes must be constant across the sweep (§6.4).
			if p.Workload.NumA != r.Points[0].Workload.NumA ||
				p.Workload.NumD != r.Points[0].Workload.NumD {
				t.Errorf("%s: sizes drift across sweep", r.Corpus)
			}
		}
	}
}

func TestRunStabListStudy(t *testing.T) {
	rows, err := xrtree.RunStabListStudy(xrtree.StabStudyConfig{
		Seed: 1, Elements: 3000, Depths: []int{2, 12}, PageSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].StabEntries <= rows[0].StabEntries {
		t.Errorf("deeper nesting should stab more: %+v", rows)
	}
	var buf bytes.Buffer
	if err := xrtree.FormatStabStudy(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "stab/leaf") {
		t.Error("study table missing header")
	}
}

func TestRunUpdateAndOpsStudies(t *testing.T) {
	up, err := xrtree.RunUpdateCostStudy(1, []int{500, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(up) != 2 || up[0].InsertAccesses <= 0 || up[0].DeleteAccesses <= 0 {
		t.Errorf("update study rows: %+v", up)
	}
	var buf bytes.Buffer
	if err := xrtree.FormatUpdateStudy(&buf, up); err != nil {
		t.Fatal(err)
	}

	ops, err := xrtree.RunBasicOpsStudy(1, []int{500, 2000}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0].AncAvgPages <= 0 {
		t.Errorf("ops study rows: %+v", ops)
	}
	if err := xrtree.FormatOpsStudy(&buf, ops); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithmString(t *testing.T) {
	cases := map[xrtree.Algorithm]string{
		xrtree.AlgNoIndex: "no-index",
		xrtree.AlgMPMGJN:  "MPMGJN",
		xrtree.AlgBPlus:   "B+",
		xrtree.AlgBPlusSP: "B+sp",
		xrtree.AlgXRStack: "XR-stack",
	}
	for alg, want := range cases {
		if alg.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(alg), alg.String(), want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	res, err := xrtree.RunAncestorSweep(xrtree.ExperimentConfig{
		Seed: 1, Scale: 0.03, PageSize: 1024, Sweep: []float64{0.55},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := xrtree.WriteCSV(&buf, res[0], "join_a"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + one row per algorithm.
	if len(lines) != 1+len(res[0].Points[0].Results) {
		t.Fatalf("CSV has %d lines: %q", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "corpus,join_a,algorithm,") {
		t.Errorf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if strings.Count(line, ",") != 9 {
			t.Errorf("row has wrong arity: %q", line)
		}
	}
}

// joinPairs is Join materialized into a slice, for small inputs.
func joinPairs(alg xrtree.Algorithm, mode xrtree.Mode, a, d *xrtree.ElementSet) ([]xrtree.Pair, error) {
	var out []xrtree.Pair
	err := xrtree.Join(alg, mode, a, d, func(av, dv xrtree.Element) { out = append(out, xrtree.Pair{A: av, D: dv}) }, nil)
	return out, err
}
