package xrtree_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"xrtree"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestPaperTablesGolden pins every counted column behind the paper's
// tables: the ancestor (Table 2), descendant (Table 3) and both-sides
// (Figure 8(e)(f)) sweeps plus the parent-child ancestor sweep, at scale 1,
// seed 1, each run observed. One line per corpus × point × algorithm holds
// the exact counters; wall-clock and model-derived times are left out, so
// the output repeats byte for byte on any machine. A change to a leaf
// capacity, a skip rule or the observed-run plumbing shows as a diff, and
// every result must carry its phase breakdown and event snapshot.
func TestPaperTablesGolden(t *testing.T) {
	var buf bytes.Buffer
	ad := xrtree.ExperimentConfig{Seed: 1, Scale: 1, Observe: true}
	pc := ad
	pc.Mode = xrtree.ParentChild
	for _, sw := range []struct {
		name string
		run  func(xrtree.ExperimentConfig) ([]xrtree.SweepResult, error)
		cfg  xrtree.ExperimentConfig
	}{
		{"ancestor", xrtree.RunAncestorSweep, ad},
		{"descendant", xrtree.RunDescendantSweep, ad},
		{"both", xrtree.RunBothSweep, ad},
		{"ancestor-pc", xrtree.RunAncestorSweep, pc},
	} {
		res, err := sw.run(sw.cfg)
		if err != nil {
			t.Fatalf("%s sweep: %v", sw.name, err)
		}
		for _, corpus := range res {
			for _, p := range corpus.Points {
				for _, r := range p.Results {
					if r.Phases == nil || r.Events == nil {
						t.Errorf("%s %q %s %s: observed run lacks its phase breakdown or event snapshot",
							sw.name, corpus.Corpus, p.Label, r.Alg)
					}
					st := r.Stats
					fmt.Fprintf(&buf, "%s %q %s %s scanned=%d pairs=%d node=%d leaf=%d stab=%d hits=%d misses=%d phys_r=%d phys_w=%d evict=%d skip=%.6f\n",
						sw.name, corpus.Corpus, p.Label, r.Alg,
						st.ElementsScanned, st.OutputPairs, st.IndexNodeReads, st.LeafReads, st.StabPageReads,
						st.BufferHits, st.BufferMisses, st.PhysicalReads, st.PhysicalWrites, st.PageEvictions,
						r.SkipEffectiveness)
				}
			}
		}
	}
	checkGolden(t, "paper_tables.golden", buf.Bytes())
}

// checkGolden compares got with testdata/name, rewriting the file instead
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s differs first at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// TestXRTreeTablesGolden pins the XR-tree's own tables at seed 1, scale 1:
// the §3.3 stab-list study (stablist), the §4 update-cost study (updates),
// the §5 basic-operation study (ops) and the §3.2 key-choice ablation,
// each written through its Format function exactly as xrbench prints it.
// Every column is a count or a ratio of counts, so the output repeats byte
// for byte; a change to a page capacity or a stab rule shows as a diff.
func TestXRTreeTablesGolden(t *testing.T) {
	var buf bytes.Buffer
	stab := func(disableKeyChoice bool) {
		rows, err := xrtree.RunStabListStudy(xrtree.StabStudyConfig{Seed: 1, DisableKeyChoice: disableKeyChoice})
		if err != nil {
			t.Fatal(err)
		}
		if err := xrtree.FormatStabStudy(&buf, rows); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintln(&buf, "stablist")
	stab(false)
	upd, err := xrtree.RunUpdateCostStudy(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "updates")
	if err := xrtree.FormatUpdateStudy(&buf, upd); err != nil {
		t.Fatal(err)
	}
	ops, err := xrtree.RunBasicOpsStudy(1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "ops")
	if err := xrtree.FormatOpsStudy(&buf, ops); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "ablation without key choice")
	stab(true)
	checkGolden(t, "xrtree_tables.golden", buf.Bytes())
}
