package join

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"xrtree/internal/metrics"
	"xrtree/internal/obs"
	"xrtree/internal/xmldoc"
)

// pairsPerLog is how many pairs one log holds as runs of one, each with a
// new ancestor, as synthRunsTask produces them.
func pairsPerLog() int { return logBytes / (recBytes + elemBytes) }

// synthPair is synthTask's i-th pair of task doc.
func synthPair(doc uint32, i int) (a, d xmldoc.Element) {
	return xmldoc.Element{DocID: doc, Start: uint32(i + 1), End: uint32(i + 100)},
		xmldoc.Element{DocID: doc, Start: uint32(i + 2), End: uint32(i + 3)}
}

// synthTask emits `count` pairs tagged with the task's doc id and counts
// one scan per pair; odd tasks sleep briefly so completion order scrambles.
func synthTask(doc uint32, count int) Task {
	return Task{DocID: doc, Run: func(emit EmitFunc, c *metrics.Counters) error {
		if doc%2 == 1 {
			time.Sleep(time.Duration(doc%5) * time.Millisecond)
		}
		for i := 0; i < count; i++ {
			emit(synthPair(doc, i))
			if c != nil {
				c.ElementsScanned++
				c.OutputPairs++
			}
		}
		return nil
	}}
}

// synthRunsTask is synthTask in run form: each pair is a run of one.
func synthRunsTask(doc uint32, count int) Task {
	return Task{DocID: doc, Runs: func(run RunFunc, c *metrics.Counters) error {
		if doc%2 == 1 {
			time.Sleep(time.Duration(doc%5) * time.Millisecond)
		}
		var anc [1]xmldoc.Element
		for i := 0; i < count; i++ {
			a, d := synthPair(doc, i)
			anc[0] = a
			run(anc[:], d)
			if c != nil {
				c.ElementsScanned++
				c.OutputPairs++
			}
		}
		return nil
	}}
}

// producers are the two forms a task's output takes.
var producers = []struct {
	name string
	task func(doc uint32, count int) Task
}{{"pairs", synthTask}, {"runs", synthRunsTask}}

// TestParallelPreservesTaskOrder checks that the pair stream and the
// merged counters are exactly the sequential loop's at every worker
// count, for both producer forms: with output-light tasks, which as runs
// finish ahead of the front out of order, and with dense ones, which as
// runs fill their logs so that tasks ahead of the front wait, then replay
// and stream. Per-pair tasks run only as the front.
func TestParallelPreservesTaskOrder(t *testing.T) {
	const tasks = 12
	for _, pr := range producers {
		for _, tc := range []struct {
			perTask int
			workers []int
		}{{50, []int{0, 1, 2, 4, 16}}, {3*pairsPerLog() + 7, []int{2, 4, 16}}} {
			perTask := tc.perTask
			ts := make([]Task, tasks)
			for i := range ts {
				ts[i] = pr.task(uint32(i+1), perTask)
			}
			for _, workers := range tc.workers {
				var pairs []Pair
				var c metrics.Counters
				if err := Parallel(ts, Options{Workers: workers}, Collect(&pairs), &c); err != nil {
					t.Fatalf("%s perTask=%d workers=%d: %v", pr.name, perTask, workers, err)
				}
				if len(pairs) != tasks*perTask {
					t.Fatalf("%s perTask=%d workers=%d: %d pairs, want %d", pr.name, perTask, workers, len(pairs), tasks*perTask)
				}
				for i, p := range pairs {
					wantDoc := uint32(i/perTask + 1)
					wantStart := uint32(i%perTask + 1)
					if p.A.DocID != wantDoc || p.A.Start != wantStart {
						t.Fatalf("%s perTask=%d workers=%d: pair %d = doc %d start %d, want doc %d start %d",
							pr.name, perTask, workers, i, p.A.DocID, p.A.Start, wantDoc, wantStart)
					}
				}
				if c.ElementsScanned != int64(tasks*perTask) || c.OutputPairs != int64(tasks*perTask) {
					t.Fatalf("%s perTask=%d workers=%d: merged counters scanned=%d pairs=%d, want %d",
						pr.name, perTask, workers, c.ElementsScanned, c.OutputPairs, tasks*perTask)
				}
				if c.Elapsed <= 0 {
					t.Fatalf("%s perTask=%d workers=%d: Elapsed not recorded", pr.name, perTask, workers)
				}
			}
		}
	}
}

// TestParallelBoundsBufferedPairs checks the output held ahead of the
// first incompletely delivered task: the pairs that tasks after it have
// produced, but the caller has not received. Run producers hold at most one
// full log per task in the window, 2×workers−1 logs in all; per-pair
// producers start only as the front, so they hold none.
func TestParallelBoundsBufferedPairs(t *testing.T) {
	const tasks = 8
	perTask := 3*pairsPerLog() + 7
	for _, pr := range producers {
		for _, workers := range []int{2, 4} {
			var (
				mu        sync.Mutex
				produced  [tasks]int
				delivered [tasks]int
				front     int // first task not fully delivered
				high      int
			)
			// count records n more pairs produced by task i.
			count := func(i, n int) {
				mu.Lock()
				defer mu.Unlock()
				produced[i] += n
				ahead := 0
				for k := front + 1; k < tasks; k++ {
					ahead += produced[k]
				}
				high = max(high, ahead)
			}
			ts := make([]Task, tasks)
			for i := range ts {
				inner := pr.task(uint32(i+1), perTask)
				ts[i] = Task{DocID: inner.DocID}
				if inner.Runs != nil {
					ts[i].Runs = func(run RunFunc, c *metrics.Counters) error {
						return inner.Runs(func(anc []xmldoc.Element, d xmldoc.Element) {
							run(anc, d)
							count(i, len(anc))
						}, c)
					}
				} else {
					ts[i].Run = func(emit EmitFunc, c *metrics.Counters) error {
						return inner.Run(func(a, d xmldoc.Element) {
							emit(a, d)
							count(i, 1)
						}, c)
					}
				}
			}
			emit := func(a, d xmldoc.Element) {
				mu.Lock()
				defer mu.Unlock()
				delivered[a.DocID-1]++
				for front < tasks && delivered[front] == perTask {
					front++
				}
			}
			if err := Parallel(ts, Options{Workers: workers}, emit, nil); err != nil {
				t.Fatal(err)
			}
			if front != tasks {
				t.Fatalf("%s workers=%d: delivered %v, want %d per task", pr.name, workers, delivered, perTask)
			}
			t.Logf("%s workers=%d: at most %d pairs buffered ahead of the front", pr.name, workers, high)
			limit := (2*workers - 1) * pairsPerLog()
			if pr.name == "pairs" {
				limit = 0
			}
			if high > limit {
				t.Fatalf("%s workers=%d: %d pairs buffered ahead of the front, want ≤ %d", pr.name, workers, high, limit)
			}
		}
	}
}

// awaitCondWait blocks until a goroutine waits on the driver's condition
// variable in the function named frame, or until stop is closed, and
// reports whether it saw the wait.
func awaitCondWait(frame string, stop <-chan struct{}) bool {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		select {
		case <-stop:
			return false
		default:
		}
		for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
			if bytes.Contains(g, []byte("sync.(*Cond).Wait")) && bytes.Contains(g, []byte(frame)) {
				return true
			}
		}
	}
	return false
}

// awaitParked blocks until a task ahead of the front waits, with its
// log full, to become the front.
func awaitParked() error {
	if !awaitCondWait("(*runLog).toFront", nil) {
		return errors.New("no task waited to become the front")
	}
	return nil
}

// TestParallelFailureReleasesWaitingTask fails the run while a task ahead
// of the front waits on its full log, once by the front task's error and
// once by cancellation: the run returns the error and leaves no goroutine.
func TestParallelFailureReleasesWaitingTask(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		front func(cancel context.CancelFunc, c *metrics.Counters) error
		want  error
	}{
		{"front fails", func(context.CancelFunc, *metrics.Counters) error { return boom }, boom},
		{"canceled", func(cancel context.CancelFunc, c *metrics.Counters) error {
			cancel()
			<-c.Ctx.Done()
			return c.Ctx.Err()
		}, context.Canceled},
	} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		ts := []Task{
			{DocID: 1, Run: func(emit EmitFunc, c *metrics.Counters) error {
				if err := awaitParked(); err != nil {
					return err
				}
				return tc.front(cancel, c)
			}},
			synthRunsTask(2, 2*pairsPerLog()),
			synthRunsTask(3, 2*pairsPerLog()),
		}
		err := Parallel(ts, Options{Workers: 2}, nil, &metrics.Counters{Ctx: ctx})
		cancel()
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before the run", tc.name, runtime.NumGoroutine(), base)
			}
		}
	}
}

// TestParallelFullLogDispatch checks the dispatch rule. A run producer's
// full log leaves the window open: the full task's first delivered pair
// holds the replay until the next task starts, which it must. A per-pair
// producer never starts while an earlier task is the front: the front
// task runs until the second worker waits for the window, or until the
// per-pair task starts, which it must not.
func TestParallelFullLogDispatch(t *testing.T) {
	started := make(chan struct{})
	ts := []Task{
		{DocID: 1, Run: func(emit EmitFunc, c *metrics.Counters) error { return awaitParked() }},
		synthRunsTask(2, 2*pairsPerLog()),
		{DocID: 3, Runs: func(run RunFunc, c *metrics.Counters) error {
			close(started)
			return nil
		}},
	}
	held, ahead := false, false
	emit := func(a, d xmldoc.Element) {
		if d.DocID == 2 && !held {
			held = true
			select {
			case <-started:
				ahead = true
			case <-time.After(10 * time.Second):
			}
		}
	}
	if err := Parallel(ts, Options{Workers: 2}, emit, nil); err != nil {
		t.Fatal(err)
	}
	if !ahead {
		t.Fatal("the next task did not start while a run producer's full log waited")
	}

	started = make(chan struct{})
	waited := false
	ts = []Task{
		{DocID: 1, Run: func(emit EmitFunc, c *metrics.Counters) error {
			waited = awaitCondWait("(*driverState).work", started)
			return nil
		}},
		{DocID: 2, Run: func(emit EmitFunc, c *metrics.Counters) error {
			close(started)
			return nil
		}},
	}
	if err := Parallel(ts, Options{Workers: 2}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !waited {
		t.Fatal("a per-pair task started while an earlier task was the front")
	}
}

func TestParallelPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	ts := []Task{
		synthTask(1, 5),
		{DocID: 2, Run: func(emit EmitFunc, c *metrics.Counters) error { return boom }},
		synthTask(3, 5),
	}
	if err := Parallel(ts, Options{Workers: 3}, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if err := Parallel(ts, Options{Workers: 1}, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("sequential err = %v, want boom", err)
	}
}

func TestParallelSharedTracer(t *testing.T) {
	const tasks, perTask = 8, 30
	ts := make([]Task, tasks)
	for i := range ts {
		doc := uint32(i + 1)
		ts[i] = Task{DocID: doc, Run: func(emit EmitFunc, c *metrics.Counters) error {
			for j := 0; j < perTask; j++ {
				c.Emit(obs.EvOutput, 1)
			}
			return nil
		}}
	}
	col := obs.NewCollector()
	c := metrics.Counters{Tracer: col}
	if err := Parallel(ts, Options{Workers: 4}, nil, &c); err != nil {
		t.Fatal(err)
	}
	if got := col.Count(obs.EvOutput); got != tasks*perTask {
		t.Fatalf("collector saw %d EvOutput events, want %d", got, tasks*perTask)
	}
}

func TestParallelEmptyTasks(t *testing.T) {
	var c metrics.Counters
	if err := Parallel(nil, Options{Workers: 4}, nil, &c); err != nil {
		t.Fatal(err)
	}
}
