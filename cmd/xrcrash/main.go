// Command xrcrash is the crash-recovery gate run by CI (`make
// crash-smoke`): it kills a WAL-enabled store's log at randomized byte
// offsets mid-workload, reopens through recovery, and verifies that every
// acknowledged transaction survived and every index invariant
// (Definition 4, B+-tree ordering) holds. The n kill points range over
// the log's header and record bytes; n/5 more (at least one) tear the
// zero fill of the first segment created after a random offset. It fails
// unless kills landed in both records and fill. A final phase hammers one
// store with concurrent writers and asserts the group-commit signature,
// fsyncs < commits.
//
// Usage:
//
//	xrcrash [-n 30] [-ops 200] [-seed 1] [-writers 8] [-wops 100] [-v]
//
// Exit status 0 means every crash recovered clean.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"xrtree/internal/wal/crashtest"
)

func main() {
	var (
		n       = flag.Int("n", 30, "randomized kill points in the log's headers and records (n/5 more, at least one, in segment fill)")
		ops     = flag.Int("ops", 200, "insert/delete transactions per run")
		seed    = flag.Int64("seed", 1, "base random seed")
		writers = flag.Int("writers", 8, "concurrent writers in the group-commit phase")
		wops    = flag.Int("wops", 100, "inserts per writer in the group-commit phase")
		verbose = flag.Bool("v", false, "print every run")
	)
	flag.Parse()

	root, err := os.MkdirTemp("", "xrcrash")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(root)

	// Probe run: no crash, clean close. Measures the bytes written to the
	// log's files so kill points cover the whole range the workload
	// writes, and checks the clean-shutdown path itself.
	probeDir := filepath.Join(root, "probe")
	if err := os.Mkdir(probeDir, 0o755); err != nil {
		fatal(err)
	}
	probe, err := crashtest.Run(probeDir, crashtest.Config{Seed: *seed, Ops: *ops})
	if err != nil {
		fatal(fmt.Errorf("probe run: %w", err))
	}
	if probe.LogBytes == 0 {
		fatal(fmt.Errorf("probe run wrote no log bytes"))
	}
	fmt.Printf("probe: %d transactions, %d log bytes, clean close honored\n",
		probe.Committed, probe.LogBytes)

	// Crash runs: kill the log at a random offset, recover, verify. The
	// runs past n move their kill into the next segment fill.
	rng := rand.New(rand.NewSource(*seed))
	runs := *n + max(*n/5, 1)
	fired := 0
	kinds := map[crashtest.KillKind]int{}
	for i := 0; i < runs; i++ {
		dir := filepath.Join(root, fmt.Sprintf("run%03d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			fatal(err)
		}
		cfg := crashtest.Config{
			Seed:       *seed + int64(i) + 1,
			Ops:        *ops,
			KillAfter:  1 + rng.Int63n(probe.LogBytes),
			KillInFill: i >= *n,
		}
		res, err := crashtest.Run(dir, cfg)
		if err != nil {
			fatal(fmt.Errorf("run %d (seed %d, kill %d, in fill %v): %w", i, cfg.Seed, cfg.KillAfter, cfg.KillInFill, err))
		}
		if res.Crashed {
			fired++
			kinds[res.Kill]++
		}
		if *verbose {
			fmt.Printf("run %3d: kill@%-7d crashed=%-5v in=%-6s committed=%-4d redo: %d tx, %d pages, torn=%v\n",
				i, cfg.KillAfter, res.Crashed, res.Kill, res.Committed,
				res.Report.TxCommitted, res.Report.PagesApplied, res.Report.TornTail)
		}
		os.RemoveAll(dir)
	}
	fmt.Printf("crash: %d/%d kill points fired (%d in segment headers, %d in records, %d in segment fill), all recovered clean\n",
		fired, runs, kinds[crashtest.KillHeader], kinds[crashtest.KillRecord], kinds[crashtest.KillFill])
	if kinds[crashtest.KillRecord] == 0 || kinds[crashtest.KillFill] == 0 {
		fatal(fmt.Errorf("no kill point tore a record or none tore a segment fill — kill range miscalibrated"))
	}

	// Group-commit phase: concurrent writers must share fsyncs.
	stats, err := crashtest.RunGroupCommit(filepath.Join(root, "gc.db"), *writers, *wops)
	if err != nil {
		fatal(fmt.Errorf("group commit: %w", err))
	}
	fmt.Printf("group commit: %d commits, %d fsyncs, max group %d\n",
		stats.Commits, stats.Fsyncs, stats.MaxGroup)
	if stats.Fsyncs >= stats.Commits {
		fatal(fmt.Errorf("group commit absent: %d fsyncs for %d commits", stats.Fsyncs, stats.Commits))
	}
	fmt.Println("ok")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xrcrash:", err)
	os.Exit(1)
}
