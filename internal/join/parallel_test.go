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

// pairsPerLog is how many of a per-pair producer's pairs, such as
// synthTask's, one log holds.
func pairsPerLog() int { return logBytes / pairBytes }

// synthTask emits `count` pairs tagged with the task's doc id and counts
// one scan per pair; odd tasks sleep briefly so completion order scrambles.
func synthTask(doc uint32, count int) Task {
	return Task{DocID: doc, Run: func(emit EmitFunc, c *metrics.Counters) error {
		if doc%2 == 1 {
			time.Sleep(time.Duration(doc%5) * time.Millisecond)
		}
		for i := 0; i < count; i++ {
			a := xmldoc.Element{DocID: doc, Start: uint32(i + 1), End: uint32(i + 100)}
			d := xmldoc.Element{DocID: doc, Start: uint32(i + 2), End: uint32(i + 3)}
			emit(a, d)
			if c != nil {
				c.ElementsScanned++
				c.OutputPairs++
			}
		}
		return nil
	}}
}

// TestParallelPreservesTaskOrder checks that the pair stream and the
// merged counters are exactly the sequential loop's at every worker
// count: with output-light tasks, which finish inside their logs out of
// order, and with dense ones, which fill their logs so that tasks ahead
// of the front wait, then replay and stream, and the run stops
// dispatching ahead.
func TestParallelPreservesTaskOrder(t *testing.T) {
	const tasks = 12
	for _, tc := range []struct {
		perTask int
		workers []int
	}{{50, []int{0, 1, 2, 4, 16}}, {3*pairsPerLog() + 7, []int{2, 4, 16}}} {
		perTask := tc.perTask
		ts := make([]Task, tasks)
		for i := range ts {
			ts[i] = synthTask(uint32(i+1), perTask)
		}
		for _, workers := range tc.workers {
			var pairs []Pair
			var c metrics.Counters
			if err := Parallel(ts, Options{Workers: workers}, Collect(&pairs), &c); err != nil {
				t.Fatalf("perTask=%d workers=%d: %v", perTask, workers, err)
			}
			if len(pairs) != tasks*perTask {
				t.Fatalf("perTask=%d workers=%d: %d pairs, want %d", perTask, workers, len(pairs), tasks*perTask)
			}
			for i, p := range pairs {
				wantDoc := uint32(i/perTask + 1)
				wantStart := uint32(i%perTask + 1)
				if p.A.DocID != wantDoc || p.A.Start != wantStart {
					t.Fatalf("perTask=%d workers=%d: pair %d = doc %d start %d, want doc %d start %d",
						perTask, workers, i, p.A.DocID, p.A.Start, wantDoc, wantStart)
				}
			}
			if c.ElementsScanned != int64(tasks*perTask) || c.OutputPairs != int64(tasks*perTask) {
				t.Fatalf("perTask=%d workers=%d: merged counters scanned=%d pairs=%d, want %d",
					perTask, workers, c.ElementsScanned, c.OutputPairs, tasks*perTask)
			}
			if c.Elapsed <= 0 {
				t.Fatalf("perTask=%d workers=%d: Elapsed not recorded", perTask, workers)
			}
		}
	}
}

// TestParallelBoundsBufferedPairs checks that a dense run holds at most
// one full log per task in the window ahead of the front: the pairs that
// tasks ahead of the first incompletely delivered task have produced, but
// the caller has not received, never exceed 2×workers−1 logs.
func TestParallelBoundsBufferedPairs(t *testing.T) {
	const tasks = 8
	perTask := 3*pairsPerLog() + 7
	for _, workers := range []int{2, 4} {
		var (
			mu        sync.Mutex
			produced  [tasks]int
			delivered [tasks]int
			front     int // first task not fully delivered
			high      int
		)
		ts := make([]Task, tasks)
		for i := range ts {
			inner := synthTask(uint32(i+1), perTask)
			ts[i] = Task{DocID: inner.DocID, Run: func(emit EmitFunc, c *metrics.Counters) error {
				return inner.Run(func(a, d xmldoc.Element) {
					emit(a, d)
					mu.Lock()
					defer mu.Unlock()
					produced[i]++
					ahead := 0
					for k := front + 1; k < tasks; k++ {
						ahead += produced[k]
					}
					high = max(high, ahead)
				}, c)
			}}
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
			t.Fatalf("workers=%d: delivered %v, want %d per task", workers, delivered, perTask)
		}
		t.Logf("workers=%d: at most %d pairs buffered ahead of the front", workers, high)
		if limit := (2*workers - 1) * pairsPerLog(); high > limit {
			t.Fatalf("workers=%d: %d pairs buffered ahead of the front, want ≤ %d", workers, high, limit)
		}
	}
}

// awaitParked blocks until a task ahead of the front waits, with its
// log full, to become the front.
func awaitParked() error {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
			if bytes.Contains(g, []byte("sync.(*Cond).Wait")) && bytes.Contains(g, []byte("(*runLog).toFront")) {
				return nil
			}
		}
	}
	return errors.New("no task waited to become the front")
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
			synthTask(2, 2*pairsPerLog()),
			synthTask(3, 2*pairsPerLog()),
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

// TestParallelFullLogDispatch checks the dispatch rule after a log fills
// ahead of the front. The full task's first delivered pair holds the
// replay until the next task starts or a wait runs out. A per-pair
// producer's full log makes the run dense, so the next task must not start
// before the full task is the front and done; a run producer's full log
// leaves the window open, so the next task must start meanwhile.
func TestParallelFullLogDispatch(t *testing.T) {
	for _, runs := range []bool{false, true} {
		full := synthTask(2, 2*pairsPerLog())
		wait := 100 * time.Millisecond
		if runs {
			n := 2 * pairsPerLog()
			full = Task{DocID: 2, Runs: func(run RunFunc, c *metrics.Counters) error {
				for i := 0; i < n; i++ {
					a := xmldoc.Element{DocID: 2, Start: uint32(i + 1), End: uint32(i + 100)}
					run([]xmldoc.Element{a}, xmldoc.Element{DocID: 2, Start: uint32(i + 2), End: uint32(i + 3)})
				}
				return nil
			}}
			wait = 10 * time.Second
		}
		started := make(chan struct{})
		ts := []Task{
			{DocID: 1, Run: func(emit EmitFunc, c *metrics.Counters) error { return awaitParked() }},
			full,
			{DocID: 3, Run: func(emit EmitFunc, c *metrics.Counters) error {
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
				case <-time.After(wait):
				}
			}
		}
		if err := Parallel(ts, Options{Workers: 2}, emit, nil); err != nil {
			t.Fatal(err)
		}
		if ahead != runs {
			t.Fatalf("runs=%v: next task started ahead of the full task = %v, want %v", runs, ahead, runs)
		}
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
