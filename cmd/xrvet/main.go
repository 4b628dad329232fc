// Command xrvet runs the repo's custom static analyzers over module
// packages, in the manner of go vet:
//
//	go run ./cmd/xrvet ./...            # everything
//	go run ./cmd/xrvet ./internal/core  # one package
//	go run ./cmd/xrvet -run pinleak ./...
//
// The checks (see DESIGN.md "Static analysis & invariants"):
//
//	pinleak        every buffer-pool pin is released on every path
//	latchorder     locks follow tree latch → ckpt gate → page latch →
//	               pool shard → cluster shard state → prober
//	ctxpoll        page/cursor loops poll Counters.Interrupted
//	countersthread Counters is threaded by pointer, never copied/dropped
//	walheld        page mutations inside a Tx use held-frame fetches
//	spanend        every started obs.Span is ended on every path
//	errclass       errors crossing the shard boundary are ShardErrors
//	atomicfield    sync/atomic fields are never accessed plainly
//
// Exit status is 1 if any analyzer reports a finding, 2 on load errors —
// including patterns that match no packages at all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"xrtree/internal/analysis"
	"xrtree/internal/analysis/atomicfield"
	"xrtree/internal/analysis/countersthread"
	"xrtree/internal/analysis/ctxpoll"
	"xrtree/internal/analysis/errclass"
	"xrtree/internal/analysis/latchorder"
	"xrtree/internal/analysis/pinleak"
	"xrtree/internal/analysis/spanend"
	"xrtree/internal/analysis/walheld"
)

var all = []*analysis.Analyzer{
	pinleak.Analyzer,
	latchorder.Analyzer,
	ctxpoll.Analyzer,
	countersthread.Analyzer,
	walheld.Analyzer,
	spanend.Analyzer,
	errclass.Analyzer,
	atomicfield.Analyzer,
}

func main() {
	runFilter := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: xrvet [-run analyzers] [packages]\n\nanalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-15s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := all
	if *runFilter != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*runFilter, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "xrvet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "xrvet:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Packages(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "xrvet:", err)
		os.Exit(2)
	}

	findings := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xrvet:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Printf("%s: %s\n", pkg.Fset.Position(d.Pos), d.Message)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "xrvet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}
