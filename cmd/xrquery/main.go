// Command xrquery evaluates structural queries over XML documents.
//
// A two-step query ("anc//desc" or "anc/desc") runs as one structural join
// with the chosen algorithm(s), printing result pairs and cost counters —
// a miniature of the paper's experimental runs. A longer path expression
// ("departments/department//employee/name") runs as a pipeline of XR-stack
// joins (the paper's §7 future work). With a comma-separated -in list the
// query runs over a document collection (the DocId join condition of §2.2)
// and -workers parallelizes the join across documents. A -timeout bounds
// the whole query through the engine's cancellation plumbing: on expiry
// xrquery exits non-zero with a clear message.
//
// Usage:
//
//	xrquery -in dept.xml -query 'employee//name' -alg xr
//	xrquery -in dept.xml -query 'employee/name' -alg all -quiet
//	xrquery -in a.xml,b.xml -query 'employee//name' -workers 4
//	xrquery -in dept.xml -query 'department//employee/name' -timeout 500ms
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"xrtree"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xrquery: ")
	var (
		in        = flag.String("in", "", "input XML file(s), comma-separated for a collection")
		storeArg  = flag.String("store", "", "store file built by xrload (alternative to -in)")
		query     = flag.String("query", "", "join query: anc//desc or anc/desc (required)")
		alg       = flag.String("alg", "xr", "algorithm: noindex, mpmgjn, bplus, xr, or all")
		quiet     = flag.Bool("quiet", false, "suppress pair output, print only counts")
		limit     = flag.Int("limit", 20, "max pairs to print")
		attrs     = flag.Bool("attrs", false, "materialize attributes (@name) and text (#text) as nodes")
		stats     = flag.Bool("stats", false, "print the full counter snapshot and join-phase breakdown per query")
		statsJSON = flag.Bool("stats-json", false, "print the per-query observation as JSON")
		timeout   = flag.Duration("timeout", 0, "per-query deadline; on expiry exit non-zero (0: none)")
		workers   = flag.Int("workers", 1, "parallel join workers (collection input)")
	)
	flag.Parse()
	if (*in == "") == (*storeArg == "") || *query == "" {
		log.Fatal("exactly one of -in or -store, plus -query, are required")
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := runOpts{
		quiet: *quiet, limit: *limit, stats: *stats, statsJSON: *statsJSON,
		ctx: ctx, timeout: *timeout, workers: *workers,
	}

	if *storeArg != "" {
		runFromStore(*storeArg, *query, *alg, opts)
		return
	}

	files := strings.Split(*in, ",")
	docs := make([]*xrtree.Document, 0, len(files))
	for i, path := range files {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		doc, err := xrtree.ParseXMLWithOptions(f, xrtree.ParseOptions{
			DocID: uint32(i + 1), IncludeAttributes: *attrs, IncludeText: *attrs, KeepText: true,
		})
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		docs = append(docs, doc)
	}
	store, err := xrtree.NewMemStore(xrtree.StoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	if len(docs) > 1 {
		runCollection(store, docs, *query, *alg, opts)
		return
	}
	doc := docs[0]

	ancTag, descTag, mode, err := parseQuery(*query)
	if err != nil {
		// Not a two-step join: evaluate as a path-expression pipeline.
		runPath(store, doc, *query, opts)
		return
	}

	a, err := store.IndexElements(doc.ElementsByTag(ancTag), xrtree.IndexOptions{})
	if err != nil {
		log.Fatalf("indexing %s: %v", ancTag, err)
	}
	d, err := store.IndexElements(doc.ElementsByTag(descTag), xrtree.IndexOptions{})
	if err != nil {
		log.Fatalf("indexing %s: %v", descTag, err)
	}

	algs, err := pickAlgorithms(*alg)
	if err != nil {
		log.Fatal(err)
	}
	runJoins(store, a, d, algs, mode, opts)
}

// runOpts bundles the output and execution options of a query run.
type runOpts struct {
	quiet     bool
	limit     int
	stats     bool
	statsJSON bool
	ctx       context.Context
	timeout   time.Duration
	workers   int
}

// fatal reports err and exits non-zero, with a dedicated message when the
// query hit its -timeout deadline.
func (o runOpts) fatal(what string, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		log.Fatalf("%s timed out after %v (deadline exceeded; partial work discarded)", what, o.timeout)
	}
	log.Fatalf("%s: %v", what, err)
}

// queryObservation is the machine-readable form of one -stats-json line.
type queryObservation struct {
	Alg               string               `json:"alg"`
	Pairs             int64                `json:"pairs"`
	ElementsScanned   int64                `json:"elements_scanned"`
	BufferHits        int64                `json:"buffer_hits"`
	BufferMisses      int64                `json:"buffer_misses"`
	PhysicalReads     int64                `json:"physical_reads"`
	PageEvictions     int64                `json:"page_evictions"`
	ElapsedMS         float64              `json:"elapsed_ms"`
	SkipEffectiveness float64              `json:"skip_effectiveness"`
	FingerHits        int64                `json:"finger_hits"`
	FingerMisses      int64                `json:"finger_misses"`
	FingerHitShare    float64              `json:"finger_hit_share"`
	Phases            xrtree.JoinPhases    `json:"phases"`
	Events            xrtree.TraceSnapshot `json:"events"`
}

func printObservation(rep *xrtree.JoinReport, opts runOpts) {
	st := rep.Stats
	if opts.statsJSON {
		obs := queryObservation{
			Alg:               rep.Alg.String(),
			Pairs:             st.OutputPairs,
			ElementsScanned:   st.ElementsScanned,
			BufferHits:        st.BufferHits,
			BufferMisses:      st.BufferMisses,
			PhysicalReads:     st.PhysicalReads,
			PageEvictions:     st.PageEvictions,
			ElapsedMS:         float64(st.Elapsed.Microseconds()) / 1000,
			SkipEffectiveness: rep.SkipEffectiveness,
			FingerHits:        st.FingerHits,
			FingerMisses:      st.FingerMisses,
			FingerHitShare:    rep.FingerHitShare,
			Phases:            rep.Phases,
			Events:            rep.Events,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(obs); err != nil {
			log.Fatal(err)
		}
		return
	}
	ph := rep.Phases
	fmt.Printf("%-9s pairs=%d scanned=%d misses=%d elapsed=%v\n",
		rep.Alg, st.OutputPairs, st.ElementsScanned, st.BufferMisses, st.Elapsed)
	fmt.Printf("          hits=%d physical_reads=%d evictions=%d skip_effectiveness=%.3f\n",
		st.BufferHits, st.PhysicalReads, st.PageEvictions, rep.SkipEffectiveness)
	fmt.Printf("          finger_hits=%d finger_misses=%d finger_hit_share=%.3f\n",
		st.FingerHits, st.FingerMisses, rep.FingerHitShare)
	fmt.Printf("          phases: anc_probes=%d ancestors_fetched=%d anc_skips=%d (dist %d) desc_skips=%d (dist %d) output_batches=%d index_descends=%d stab_scans=%d\n",
		ph.AncProbes, ph.AncestorsFetched, ph.AncSkips, ph.AncSkipDistance,
		ph.DescSkips, ph.DescSkipDistance, ph.OutputBatches, ph.IndexDescends, ph.StabScans)
}

// runJoins runs every requested algorithm over the indexed sets, printing
// pairs and the cost summary; with stats/statsJSON it traces each run and
// reports the phase breakdown and skipping effectiveness too.
func runJoins(store *xrtree.Store, a, d *xrtree.ElementSet, algs []xrtree.Algorithm, mode xrtree.Mode, opts runOpts) {
	for _, algo := range algs {
		if err := store.DropCache(); err != nil {
			log.Fatal(err)
		}
		printed := 0
		emit := func(av, dv xrtree.Element) {
			if !opts.quiet && printed < opts.limit {
				fmt.Printf("  %v  ⊃  %v\n", av, dv)
				printed++
			}
		}
		st := xrtree.Stats{Ctx: opts.ctx}
		if !opts.stats && !opts.statsJSON {
			store.AttachStats(&st)
			err := xrtree.Join(algo, mode, a, d, emit, &st)
			store.AttachStats(nil)
			if err != nil {
				opts.fatal(algo.String(), err)
			}
			fmt.Printf("%-9s pairs=%d scanned=%d misses=%d elapsed=%v\n",
				algo, st.OutputPairs, st.ElementsScanned, st.BufferMisses, st.Elapsed)
			continue
		}
		rep, err := xrtree.ObservedJoin(algo, mode, a, d, emit, &st)
		if err != nil {
			opts.fatal(algo.String(), err)
		}
		printObservation(rep, opts)
	}
}

// runCollection evaluates the query over a multi-document collection:
// two-step joins run per document under the DocId condition, distributed
// over -workers; longer expressions run the path pipeline per document.
func runCollection(store *xrtree.Store, docs []*xrtree.Document, query, alg string, opts runOpts) {
	coll := store.NewCollection()
	for _, doc := range docs {
		if err := coll.Add(doc); err != nil {
			log.Fatal(err)
		}
	}
	ancTag, descTag, mode, err := parseQuery(query)
	if err != nil {
		// Path pipeline across the collection.
		st := xrtree.Stats{Ctx: opts.ctx}
		els, err := coll.QueryDocs(query, nil, &st)
		if err != nil {
			opts.fatal("path query", err)
		}
		printElements(els, opts)
		fmt.Printf("path      results=%d scanned=%d elapsed=%v (%d docs)\n",
			len(els), st.ElementsScanned, st.Elapsed, coll.Len())
		return
	}
	algs, err := pickAlgorithms(alg)
	if err != nil {
		log.Fatal(err)
	}
	jopts := xrtree.ParallelJoinOptions{Workers: opts.workers}
	for _, algo := range algs {
		printed := 0
		emit := func(av, dv xrtree.Element) {
			if !opts.quiet && printed < opts.limit {
				fmt.Printf("  %v  ⊃  %v\n", av, dv)
				printed++
			}
		}
		st := xrtree.Stats{Ctx: opts.ctx}
		if opts.stats || opts.statsJSON {
			rep, err := coll.ObservedParallelJoin(algo, mode, ancTag, descTag, emit, &st, jopts)
			if err != nil {
				opts.fatal(algo.String(), err)
			}
			printObservation(rep, opts)
			continue
		}
		if err := coll.ParallelJoin(algo, mode, ancTag, descTag, emit, &st, jopts); err != nil {
			opts.fatal(algo.String(), err)
		}
		fmt.Printf("%-9s pairs=%d scanned=%d misses=%d elapsed=%v (%d docs, %d workers)\n",
			algo, st.OutputPairs, st.ElementsScanned, st.BufferMisses, st.Elapsed, coll.Len(), opts.workers)
	}
}

// parseQuery recognizes the simple two-step form anc//desc or anc/desc;
// anything else is handled by the path-expression pipeline.
func parseQuery(q string) (anc, desc string, mode xrtree.Mode, err error) {
	if strings.ContainsAny(q, "[]") {
		return "", "", 0, fmt.Errorf("query %q has predicates; use the path pipeline", q)
	}
	if i := strings.Index(q, "//"); i > 0 {
		anc, desc = q[:i], q[i+2:]
		mode = xrtree.AncestorDescendant
	} else if i := strings.Index(q, "/"); i > 0 {
		anc, desc = q[:i], q[i+1:]
		mode = xrtree.ParentChild
	} else {
		return "", "", 0, fmt.Errorf("query %q is not of the form anc//desc or anc/desc", q)
	}
	if strings.Contains(anc, "/") || strings.Contains(desc, "/") {
		return "", "", 0, fmt.Errorf("query %q has more than two steps", q)
	}
	return anc, desc, mode, nil
}

// runFromStore reopens a catalogued store and runs a two-step join over
// its persisted index sets — no XML parsing or index building involved.
func runFromStore(path, query, alg string, opts runOpts) {
	store, err := xrtree.OpenStore(path, xrtree.StoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	ancTag, descTag, mode, err := parseQuery(query)
	if err != nil {
		log.Fatalf("store mode supports two-step joins only: %v", err)
	}
	a, err := store.OpenSet(ancTag)
	if err != nil {
		log.Fatalf("set %q: %v", ancTag, err)
	}
	d, err := store.OpenSet(descTag)
	if err != nil {
		log.Fatalf("set %q: %v", descTag, err)
	}
	algs, err := pickAlgorithms(alg)
	if err != nil {
		log.Fatal(err)
	}
	runJoins(store, a, d, algs, mode, opts)
}

func printElements(els []xrtree.Element, opts runOpts) {
	if opts.quiet {
		return
	}
	for i, e := range els {
		if i >= opts.limit {
			fmt.Printf("  … %d more\n", len(els)-opts.limit)
			break
		}
		fmt.Printf("  %v\n", e)
	}
}

// runPath evaluates a multi-step path expression with the XR-stack
// pipeline and prints the matching elements.
func runPath(store *xrtree.Store, doc *xrtree.Document, query string, opts runOpts) {
	idx := store.IndexDocument(doc)
	st := xrtree.Stats{Ctx: opts.ctx}
	els, err := idx.Query(query, &st)
	if err != nil {
		opts.fatal("path query", err)
	}
	printElements(els, opts)
	fmt.Printf("path      results=%d scanned=%d elapsed=%v\n",
		len(els), st.ElementsScanned, st.Elapsed)
}

func pickAlgorithms(name string) ([]xrtree.Algorithm, error) {
	switch name {
	case "noindex":
		return []xrtree.Algorithm{xrtree.AlgNoIndex}, nil
	case "mpmgjn":
		return []xrtree.Algorithm{xrtree.AlgMPMGJN}, nil
	case "bplus", "b+":
		return []xrtree.Algorithm{xrtree.AlgBPlus}, nil
	case "bplussp", "b+sp":
		return []xrtree.Algorithm{xrtree.AlgBPlusSP}, nil
	case "xr", "xrstack":
		return []xrtree.Algorithm{xrtree.AlgXRStack}, nil
	case "all":
		return []xrtree.Algorithm{xrtree.AlgNoIndex, xrtree.AlgMPMGJN, xrtree.AlgBPlus, xrtree.AlgBPlusSP, xrtree.AlgXRStack}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
}
