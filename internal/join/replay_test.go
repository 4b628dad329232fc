package join

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"xrtree/internal/metrics"
	"xrtree/internal/xmldoc"
)

// withDocID returns a copy of es moved to document doc.
func withDocID(es []xmldoc.Element, doc uint32) []xmldoc.Element {
	out := append([]xmldoc.Element(nil), es...)
	for i := range out {
		out[i].DocID = doc
	}
	return out
}

// replayTasks builds a random partition list for the replay checks. Each
// task joins one to three random nested documents in turn, in either mode,
// as runs (XR-stack or Stack-Tree-Desc over in-memory sources) or pair by
// pair (the brute-force reference). A task's documents share one layout
// under different DocIDs, as a cluster shard's do, so consecutive runs
// carry ancestors with equal positions that are different elements.
func replayTasks(rng *rand.Rand) []Task {
	tasks := make([]Task, 1+rng.Intn(8))
	for i := range tasks {
		as, ds := genDoc(rng, 1+rng.Intn(40), 1+rng.Intn(60), 1+rng.Intn(6))
		mode := Mode(rng.Intn(2))
		docs := 1 + rng.Intn(3)
		base := uint32(10 * (i + 1))
		switch kind := rng.Intn(3); kind {
		case 0, 1:
			tasks[i] = Task{DocID: base, Runs: func(run RunFunc, c *metrics.Counters) error {
				for k := range docs {
					a := SliceSource{Els: withDocID(as, base+uint32(k))}
					d := SliceSource{Els: withDocID(ds, base+uint32(k))}
					var err error
					if kind == 0 {
						err = XRStackRuns(mode, a, d, run, c)
					} else {
						err = StackTreeDescRuns(mode, a, d, run, c)
					}
					if err != nil {
						return err
					}
				}
				return nil
			}}
		default:
			tasks[i] = Task{DocID: base, Run: func(emit EmitFunc, c *metrics.Counters) error {
				for k := range docs {
					for _, p := range Reference(mode, withDocID(as, base+uint32(k)), withDocID(ds, base+uint32(k))) {
						emit(p.A, p.D)
						c.OutputPairs++
					}
				}
				return nil
			}}
		}
	}
	return tasks
}

// checkReplay runs seed's tasks through Parallel at the given worker
// count, with logs of capBytes, and requires the pair stream and the
// merged counters to equal the sequential loop's exactly.
func checkReplay(t testing.TB, seed int64, workers, capBytes int) {
	build := func() []Task { return replayTasks(rand.New(rand.NewSource(seed))) }
	checkTasks(t, "seed="+strconv.FormatInt(seed, 10), build, workers, capBytes)
}

// checkTasks is checkReplay over the tasks build returns, built afresh for
// each of the two runs.
func checkTasks(t testing.TB, name string, build func() []Task, workers, capBytes int) {
	tasks := build()
	var want []Pair
	var wc metrics.Counters
	for i := range tasks {
		if err := runTask(&tasks[i], EachPair(Collect(&want)), Collect(&want), &wc); err != nil {
			t.Fatal(err)
		}
	}

	defer func(old int) { logBytes = old }(logBytes)
	logBytes = capBytes
	var got []Pair
	var gc metrics.Counters
	if err := Parallel(build(), Options{Workers: workers}, Collect(&got), &gc); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s workers=%d log=%dB: %d pairs, want %d", name, workers, capBytes, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s workers=%d log=%dB: pair %d = %v, want %v", name, workers, capBytes, i, got[i], want[i])
		}
	}
	if gc.OutputPairs != wc.OutputPairs || gc.ElementsScanned != wc.ElementsScanned {
		t.Fatalf("%s workers=%d log=%dB: merged counters pairs=%d scanned=%d, want %d and %d",
			name, workers, capBytes, gc.OutputPairs, gc.ElementsScanned, wc.OutputPairs, wc.ElementsScanned)
	}
}

// TestParallelReplayMatchesSequential checks the run logs end to end:
// random partitions in both modes, as runs and pair by pair, at one to four
// workers, with logs from smaller than one record (every run overflows)
// to the default size (no run does).
func TestParallelReplayMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for workers := 1; workers <= 4; workers++ {
			for _, capBytes := range []int{1, recBytes + elemBytes, 400, logBytes} {
				checkReplay(t, seed, workers, capBytes)
			}
		}
	}
}

// TestParallelReplayComparesWholeElements replays producers whose
// consecutive documents put different ancestors at equal positions: each
// document is one ancestor over a few descendants, so a log that kept an
// ancestor by its position would pair a document's descendants with the
// previous document's ancestor. The front task waits for the next one to
// finish (or to give up on a full log), so that one is logged. The logged
// task produces runs: a task producing pairs starts only as the front, so
// it never reaches a log (TestParallelPreservesTaskOrder covers both
// producer forms).
func TestParallelReplayComparesWholeElements(t *testing.T) {
	const docs, kids = 3, 4
	root := func(doc uint32) xmldoc.Element { return xmldoc.Element{DocID: doc, Start: 1, End: 100, Level: 1} }
	kid := func(doc uint32, j int) xmldoc.Element {
		return xmldoc.Element{DocID: doc, Start: uint32(2 + 2*j), End: uint32(3 + 2*j), Level: 2}
	}
	pairs := func(base uint32) Task {
		return Task{DocID: base, Run: func(emit EmitFunc, c *metrics.Counters) error {
			for doc := base; doc < base+docs; doc++ {
				for j := range kids {
					emit(root(doc), kid(doc, j))
					c.OutputPairs++
				}
			}
			return nil
		}}
	}
	runs := func(base uint32) Task {
		return Task{DocID: base, Runs: func(run RunFunc, c *metrics.Counters) error {
			for doc := base; doc < base+docs; doc++ {
				anc := []xmldoc.Element{root(doc)}
				for j := range kids {
					run(anc, kid(doc, j))
					c.OutputPairs++
				}
			}
			return nil
		}}
	}
	build := func() []Task {
		done := make(chan struct{})
		logged := runs(20)
		produce := logged.Runs
		logged.Runs = func(run RunFunc, c *metrics.Counters) error {
			defer close(done)
			return produce(run, c)
		}
		front := pairs(10)
		first := front.Run
		front.Run = func(emit EmitFunc, c *metrics.Counters) error {
			select {
			case <-done:
			case <-time.After(20 * time.Millisecond):
			}
			return first(emit, c)
		}
		return []Task{front, logged, runs(30), pairs(40)}
	}
	for workers := 2; workers <= 4; workers++ {
		for _, capBytes := range []int{recBytes + elemBytes, 400, logBytes} {
			checkTasks(t, "equal positions", build, workers, capBytes)
		}
	}
}

// FuzzParallelReplay is TestParallelReplayMatchesSequential over
// fuzzer-chosen partitions, worker counts and log sizes.
func FuzzParallelReplay(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(0))
	f.Add(int64(2), uint8(3), uint16(48))
	f.Add(int64(3), uint8(2), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, workers uint8, capBytes uint16) {
		checkReplay(t, seed, 1+int(workers%4), 1+int(capBytes%4096))
	})
}
