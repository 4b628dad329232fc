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
// capacity, a skip rule or the observed-run plumbing shows as a diff.
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
