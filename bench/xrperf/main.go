// Command xrperf is the repository's benchmark: four workloads over the
// XR-tree stack, each reporting end-to-end metrics (untraced) or per-layer
// metrics (traced), with every operation's output checked against an
// oracle computed in set-up. See ../README.md.
//
//	go run -C bench ./xrperf -seed 1                 all workloads, end-to-end metrics
//	go run -C bench ./xrperf -seed 1 -trace 1        all workloads, per-layer metrics
//	go run -C bench ./xrperf -workload join_cold     one workload
//	go run -C bench ./xrperf -compare a.json b.json  verdicts against the bounds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is non-zero when
// any checked operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// resultFile is the shape of out/result.json (and out/result-trace.json):
// what -compare reads.
type resultFile struct {
	Schema    string    `json:"schema"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	GoVersion string    `json:"go"`
	CPUs      int       `json:"cpus"`
	Results   []*result `json:"results"`
}

// metricJSON is one metric of the final JSON line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadFlag = flag.String("workload", "", "run one workload (default: all of "+fmt.Sprint(workloadNames)+")")
		seed         = flag.Int64("seed", 1, "input seed: the only input-shaping argument")
		seconds      = flag.Float64("seconds", 20, "timed section per workload, split into equal rounds")
		trace        = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		outDir       = flag.String("out", "out", "directory for result and trace files and for store files")
		compare      = flag.Bool("compare", false, "compare result files: -compare A.json[,A2.json…] B.json[,B2.json…]")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: xrperf -compare A.json[,A2.json…] B.json[,B2.json…]")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "xrperf:", err)
			os.Exit(2)
		}
		return
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*workloadFlag, *seed, *seconds, *trace == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "xrperf:", err)
		os.Exit(1)
	}
}

func run(only string, seed int64, seconds float64, traced bool, outDir string) error {
	names := workloadNames
	if only != "" {
		names = []string{only}
	}
	e := env{seed: seed, scale: fullScale, dir: filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))}
	defer os.RemoveAll(e.dir)

	file := resultFile{Schema: "xrperf/1", Seed: seed, Seconds: seconds, GoVersion: runtime.Version(), CPUs: runtime.NumCPU()}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	metrics := map[string]metricJSON{}
	var attempted, failed int64
	for _, name := range names {
		var res *result
		var err error
		if traced {
			res, err = runTraced(name, e, seconds, outDir)
		} else {
			res, err = runUntraced(name, e, seconds)
		}
		if err != nil {
			return err
		}
		printResult(res)
		file.Results = append(file.Results, res)
		attempted += res.Attempted
		failed += res.Failed
		for _, s := range specs {
			key := s.Name
			if only == "" {
				key = name + "/" + s.Name
			}
			metrics[key] = metricJSON{Value: res.Metrics[s.Name], Unit: s.Unit}
		}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if traced {
		path = filepath.Join(outDir, "result-trace.json")
	}
	raw, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}

	last, err := json.Marshal(map[string]any{"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})
	if err != nil {
		return err
	}
	fmt.Printf("\n%s\n", last)
	if failed > 0 {
		return fmt.Errorf("%d of %d checked operations failed", failed, attempted)
	}
	return nil
}
