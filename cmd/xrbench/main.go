// Command xrbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index):
//
//	table2   — Table 2: elements scanned, ancestor-selectivity sweep
//	fig8ab   — Figure 8(a)(b): time for the ancestor-selectivity sweep
//	table3   — Table 3: elements scanned, descendant-selectivity sweep
//	fig8cd   — Figure 8(c)(d): time for the descendant-selectivity sweep
//	fig8ef   — Figure 8(e)(f): both selectivities varied, sizes constant
//	stablist — §3.3 stab-list size study
//	updates  — §4 amortized update-cost study (Theorems 1–2)
//	ops      — §5 basic-operation cost study (Theorems 3–4)
//	ablation — §3.2 separator key-choice ablation
//	pc       — §5.3 extension: the ancestor sweep under parent-child joins
//	all      — everything above
//
// Usage:
//
//	xrbench -exp table2 -scale 1.0 -seed 1
//	xrbench -exp table2 -csv out/   # also write plotting-friendly CSVs
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"xrtree"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xrbench: ")
	var (
		exp     = flag.String("exp", "all", "experiment id (see package comment)")
		seed    = flag.Int64("seed", 1, "random seed")
		scale   = flag.Float64("scale", 1.0, "corpus size multiplier; the join sweeps' set sizes grow as scale² (about 4.2 gives the paper's ~750k elements per set)")
		buffers = flag.Int("buffers", 100, "buffer pool pages")
		csvDir  = flag.String("csv", "", "also write each sweep as CSV files into this directory")
	)
	flag.Parse()

	cfg := xrtree.ExperimentConfig{Seed: *seed, Scale: *scale, BufferPages: *buffers}
	run := func(id string) {
		switch id {
		case "table2":
			res := must(xrtree.RunAncestorSweep(cfg))
			for _, r := range res {
				fmt.Printf("\nTable 2 — elements scanned, 99%% of descendants join (%s)\n", r.Corpus)
				check(xrtree.FormatScannedTable(os.Stdout, r, "Join-A"))
				writeCSV(*csvDir, "table2", r, "join_a")
			}
		case "fig8ab":
			res := must(xrtree.RunAncestorSweep(cfg))
			for _, r := range res {
				fmt.Printf("\nFigure 8(a)(b) — elapsed time, ancestor sweep (%s)\n", r.Corpus)
				check(xrtree.FormatTimeTable(os.Stdout, r, "Join-A"))
			}
		case "table3":
			res := must(xrtree.RunDescendantSweep(cfg))
			for _, r := range res {
				fmt.Printf("\nTable 3 — elements scanned, 99%% of ancestors join (%s)\n", r.Corpus)
				check(xrtree.FormatScannedTable(os.Stdout, r, "Join-D"))
				writeCSV(*csvDir, "table3", r, "join_d")
			}
		case "fig8cd":
			res := must(xrtree.RunDescendantSweep(cfg))
			for _, r := range res {
				fmt.Printf("\nFigure 8(c)(d) — elapsed time, descendant sweep (%s)\n", r.Corpus)
				check(xrtree.FormatTimeTable(os.Stdout, r, "Join-D"))
			}
		case "fig8ef":
			res := must(xrtree.RunBothSweep(cfg))
			for _, r := range res {
				fmt.Printf("\nFigure 8(e)(f) — elapsed time, both selectivities vary, sizes constant (%s)\n", r.Corpus)
				check(xrtree.FormatTimeTable(os.Stdout, r, "Join-A&D"))
				check(xrtree.FormatScannedTable(os.Stdout, r, "Join-A&D"))
				writeCSV(*csvDir, "fig8ef", r, "join_ad")
			}
		case "pc":
			// Extension (§5.3): the ancestor sweep under parent-child
			// semantics — the same skipping machinery with the level filter.
			pcCfg := cfg
			pcCfg.Mode = xrtree.ParentChild
			res := must(xrtree.RunAncestorSweep(pcCfg))
			for _, r := range res {
				fmt.Printf("\n§5.3 extension — parent-child joins, ancestor sweep (%s)\n", r.Corpus)
				check(xrtree.FormatScannedTable(os.Stdout, r, "Join-A"))
			}
		case "stablist":
			rows := must(xrtree.RunStabListStudy(xrtree.StabStudyConfig{
				Seed: *seed, Elements: int(20000 * *scale),
			}))
			fmt.Println("\n§3.3 — stab-list sizes vs nesting depth")
			check(xrtree.FormatStabStudy(os.Stdout, rows))
		case "updates":
			rows := must(xrtree.RunUpdateCostStudy(*seed, nil))
			fmt.Println("\n§4 — amortized update cost (page accesses per operation)")
			check(xrtree.FormatUpdateStudy(os.Stdout, rows))
		case "ops":
			rows := must(xrtree.RunBasicOpsStudy(*seed, nil, 0))
			fmt.Println("\n§5 — FindAncestors / FindDescendants cost (page accesses per probe)")
			check(xrtree.FormatOpsStudy(os.Stdout, rows))
		case "ablation":
			fmt.Println("\n§3.2 ablation — separator key choice on/off")
			on := must(xrtree.RunStabListStudy(xrtree.StabStudyConfig{
				Seed: *seed, Elements: int(20000 * *scale),
			}))
			off := must(xrtree.RunStabListStudy(xrtree.StabStudyConfig{
				Seed: *seed, Elements: int(20000 * *scale), DisableKeyChoice: true,
			}))
			fmt.Println("with key choice (prefer separator s−1):")
			check(xrtree.FormatStabStudy(os.Stdout, on))
			fmt.Println("without key choice:")
			check(xrtree.FormatStabStudy(os.Stdout, off))
		default:
			log.Fatalf("unknown experiment %q", id)
		}
	}

	if *exp == "all" {
		for _, id := range []string{"table2", "fig8ab", "table3", "fig8cd", "fig8ef", "stablist", "updates", "ops", "ablation", "pc"} {
			fmt.Printf("\n==== %s ====\n", strings.ToUpper(id))
			run(id)
		}
		return
	}
	run(*exp)
}

// writeCSV writes one sweep's CSV file into dir (no-op when dir is empty).
func writeCSV(dir, exp string, r xrtree.SweepResult, axis string) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	name := fmt.Sprintf("%s_%s.csv", exp, strings.ReplaceAll(r.Corpus, " ", "_"))
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := xrtree.WriteCSV(f, r, axis); err != nil {
		log.Fatal(err)
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
