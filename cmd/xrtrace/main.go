// Command xrtrace pretty-prints request traces from a running xrserve's
// flight recorder (/debug/traces) or from a saved JSON document. Each
// trace renders as an indented span tree: the root span is the request's
// admission-to-response window, child spans are the engine phases (the
// join, the per-document tasks of a parallel join), and span attributes
// are the typed events recorded while that span was current — page reads,
// leaf scans, skip distances — so a slow request decomposes into where the
// time and the I/O went.
//
// Usage:
//
//	xrtrace -url http://localhost:8080                 # all retained traces
//	xrtrace -url http://localhost:8080 -slow           # pinned outliers only
//	xrtrace -url http://localhost:8080 -trace 4bf92f…  # one trace by id
//	curl -s localhost:8080/debug/traces | xrtrace -    # from a saved scrape
//	curl -s localhost:8080/metrics | xrtrace -promlint -
//
// Trace ids come from the join/query responses (trace_id), from response
// traceparent headers, or from xrblast's slowest-decile report.
//
// With -promlint the input is a Prometheus text-exposition document (a
// /metrics scrape) instead, checked the way promtool's linter would check
// it (internal/obs.PromLint): declared types, legal names, cumulative
// histogram buckets, no duplicate samples. The exit status is 0 when the
// exposition is clean and 1 with a list of problems otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"xrtree/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xrtrace: ")
	var (
		baseURL = flag.String("url", "", "server base URL; fetches <url>/debug/traces")
		slow    = flag.Bool("slow", false, "only traces pinned by the slow-trace threshold")
		traceID = flag.String("trace", "", "only the trace whose id starts with this hex prefix")
		timeout = flag.Duration("timeout", 10*time.Second, "fetch timeout with -url")
		lint    = flag.Bool("promlint", false, "lint a Prometheus text-exposition file (- for stdin) instead of rendering traces")
	)
	flag.Parse()
	if *lint {
		os.Exit(promLint(flag.Args()))
	}

	var r io.Reader
	switch {
	case *baseURL != "":
		if flag.NArg() != 0 {
			log.Fatal("-url and a file argument are mutually exclusive")
		}
		client := &http.Client{Timeout: *timeout}
		resp, err := client.Get(*baseURL + "/debug/traces")
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("%s/debug/traces: status %d", *baseURL, resp.StatusCode)
		}
		r = resp.Body
	case flag.NArg() == 1 && flag.Arg(0) != "-":
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	case flag.NArg() <= 1:
		r = os.Stdin
	default:
		log.Fatal("usage: xrtrace [-url base | file | -] [-slow] [-trace id]")
	}

	traces, stats, err := decode(r)
	if err != nil {
		log.Fatal(err)
	}

	shown := 0
	for _, tr := range traces {
		if tr == nil {
			continue
		}
		if *slow && !tr.Pinned {
			continue
		}
		if *traceID != "" && !strings.HasPrefix(tr.TraceID, strings.ToLower(*traceID)) {
			continue
		}
		if shown > 0 {
			fmt.Println()
		}
		if err := tr.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
		shown++
	}
	if stats != nil {
		fmt.Printf("\nrecorder: %d/%d retained, %d recorded, %d slow (threshold %dms)\n",
			len(traces), stats.Capacity, stats.Recorded, stats.Slow, stats.SlowThreshMS)
	}
	if shown == 0 {
		log.Fatal("no traces matched (is -trace-sample set, or the request stamped with a sampled traceparent?)")
	}
}

// decode accepts either the /debug/traces document ({stats, traces}) or a
// bare array of trace records.
func decode(r io.Reader) ([]*obs.TraceRecord, *obs.RecorderStats, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	var doc struct {
		Stats  obs.RecorderStats  `json:"stats"`
		Traces []*obs.TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(data, &doc); err == nil && doc.Traces != nil {
		return doc.Traces, &doc.Stats, nil
	}
	var bare []*obs.TraceRecord
	if err := json.Unmarshal(data, &bare); err != nil {
		return nil, nil, fmt.Errorf("input is neither a /debug/traces document nor a trace array: %w", err)
	}
	return bare, nil, nil
}

// promLint runs the shared exposition linter (internal/obs.PromLint, the
// same checks the serving tests apply to /metrics) over a file or stdin.
func promLint(args []string) int {
	var r io.Reader = os.Stdin
	name := "stdin"
	switch {
	case len(args) > 1:
		log.Fatal("usage: xrtrace -promlint [file | -]")
	case len(args) == 1 && args[0] != "-":
		f, err := os.Open(args[0])
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r, name = f, args[0]
	}
	problems := obs.PromLint(r)
	for _, p := range problems {
		log.Printf("PROMLINT: %s: %s", name, p)
	}
	if len(problems) > 0 {
		log.Printf("%d exposition problems in %s", len(problems), name)
		return 1
	}
	fmt.Printf("ok: %s is a clean Prometheus text exposition\n", name)
	return 0
}
