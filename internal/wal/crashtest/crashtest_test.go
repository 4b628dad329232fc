package crashtest

import (
	"math/rand"
	"testing"
)

// TestProbeRun exercises the no-crash path: full workload, clean close,
// reopen trusting the clean-shutdown record.
func TestProbeRun(t *testing.T) {
	res, err := Run(t.TempDir(), Config{Seed: 1, Ops: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatal("probe run reported a crash")
	}
	if res.LogBytes == 0 {
		t.Fatal("probe run wrote no log bytes")
	}
}

// TestStabPageRedo is the regression for the unlogged-stab-page bug: stab
// chain pages were fetched outside the mutation's transaction, so their
// after-images never reached the log and recovery reconstructed internal
// nodes whose directories disagreed with their chains. Seed 2 with the
// tear 346 bytes into the commit after 118 acknowledged operations
// reproduced it deterministically (node split re-keying a chain entry
// between the last checkpoint and the tear).
func TestStabPageRedo(t *testing.T) {
	if _, err := Run(t.TempDir(), Config{Seed: 2, Ops: 200, KillAfter: 187011}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashSmoke covers a spread of kill points: the first segment header,
// the early log, random offsets through one probe-measured workload, and
// tears of a segment's zero fill — the first one, inside CreateStore, and
// a rotation's midway through the log.
func TestCrashSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("crash smoke is slow")
	}
	probe, err := Run(t.TempDir(), Config{Seed: 3, Ops: 150})
	if err != nil {
		t.Fatal(err)
	}
	kills := []int64{1, 16, 40, 200}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 6; i++ {
		kills = append(kills, 1+rng.Int63n(probe.LogBytes))
	}
	for _, k := range kills {
		res, err := Run(t.TempDir(), Config{Seed: 3, Ops: 150, KillAfter: k})
		if err != nil {
			t.Fatalf("kill@%d: %v", k, err)
		}
		if !res.Crashed || res.Kill == KillFill {
			t.Fatalf("kill@%d: crashed %v, tore %q", k, res.Crashed, res.Kill)
		}
	}
	for _, k := range []int64{1, probe.LogBytes / 2} {
		res, err := Run(t.TempDir(), Config{Seed: 3, Ops: 150, KillAfter: k, KillInFill: true})
		if err != nil {
			t.Fatalf("fill kill@%d: %v", k, err)
		}
		if res.Kill != KillFill {
			t.Fatalf("fill kill@%d tore %q", k, res.Kill)
		}
	}
}

// TestGroupCommit runs the concurrent-writer phase; under -race this is
// the group-commit data-race gate.
func TestGroupCommit(t *testing.T) {
	stats, err := RunGroupCommit(t.TempDir()+"/gc.db", 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fsyncs >= stats.Commits {
		t.Fatalf("group commit absent: %d fsyncs for %d commits", stats.Fsyncs, stats.Commits)
	}
}
