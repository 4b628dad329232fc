package join

// Parallel structural-join driver. The paper's join definition (§2.2)
// requires a.DocId == d.DocId, so a collection-level join decomposes into
// fully independent per-document joins: region codes of different
// documents never interact, and the result set is the concatenation of the
// per-document results in document order. That makes DocId the natural
// partitioning key — no result pair, stack state, or skip decision ever
// crosses a partition boundary, so running partitions on K goroutines is
// result-identical to the sequential loop.
//
// Workers share the (sharded) buffer pool and the latched trees; each
// works against its own metrics.Counters so the hot counting paths stay
// plain increments, and the per-task counters are folded into the caller's
// set when the pool drains.
//
// Output crosses goroutines as runs, not pairs. The front task (the first
// whose output has not all reached the caller) streams its runs straight
// to the caller's emit. A task ahead of the front writes a run log: one
// record per descendant — how many ancestors it keeps from the previous
// run, how many it adds, and the descendant — plus an arena of the added
// ancestors. A join's ancestor stack changes by a few elements per
// descendant, so the log grows with the elements the join outputs, not
// with its pairs. If the task finishes inside its log, the goroutine that
// advances the front replays the log to emit in the exact pair order of
// the sequential loop. If the task becomes the front while it runs, or
// its log fills and it waits until it does, it replays the log itself and
// streams the rest. Logs are bounded (logBytes) and pooled, and at most
// 2×workers−1 tasks run ahead of the front, so the output held aside is
// bounded too. A per-pair producer (Task.Run) starts only when it is the
// front and streams straight to emit, so no log ever holds a pair. Why this
// cut and not the earlier ones: DESIGN.md, "Parallel join driver".

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"xrtree/internal/metrics"
	"xrtree/internal/obs"
	"xrtree/internal/xmldoc"
)

// Task is one independent partition of a parallel join: typically the two
// access paths of one document, closed over by Runs. A task streams its
// output to the provided callback and accounts costs into the provided
// counters (which carry the shared tracer); it must not retain either
// after returning.
type Task struct {
	DocID uint32
	// Runs produces the partition's output as runs. When nil, Run does.
	Runs func(run RunFunc, c *metrics.Counters) error
	// Run produces it pair by pair. Such a task starts only when it is the
	// front, so it runs at one worker's speed. It is kept for bench/xrperf's
	// merge ladder, which produces pairs (ROADMAP item 26).
	Run func(emit EmitFunc, c *metrics.Counters) error
}

// Options configures Parallel.
type Options struct {
	// Workers is the number of join goroutines; ≤ 0 selects GOMAXPROCS.
	// 1 runs the tasks sequentially in the calling goroutine.
	Workers int
}

// logBytes is the most bytes one run log holds: 80 KiB, room for a
// Department document's whole employee//name partition (~990 records and
// ~990 added ancestors, 48 KB). Tests lower it to force overflow.
var logBytes = 80 << 10

// logRec is one run of a log: the descendant, paired with the first keep
// ancestors of the previous run followed by the next add ancestors of the
// log's arena.
type logRec struct {
	keep, add uint32
	d         xmldoc.Element
}

const (
	recBytes  = int(unsafe.Sizeof(logRec{}))
	elemBytes = int(unsafe.Sizeof(xmldoc.Element{}))
)

// runLog is the output of one task dispatched ahead of the front. Logs are
// pooled with their slices and bound callback, so a warm run allocates
// none.
type runLog struct {
	s         *driverState
	i         int  // the task's index
	streaming bool // the log was replayed: runs go straight to emit

	recs  []logRec
	arena []xmldoc.Element // the added ancestors of every record, in order
	stack []xmldoc.Element // the last run's ancestors; the replay's stack

	run RunFunc // add, bound once
}

var logPool = sync.Pool{New: func() any {
	l := &runLog{}
	l.run = l.add
	return l
}}

func getLog(s *driverState, i int) *runLog {
	l := logPool.Get().(*runLog)
	l.s, l.i = s, i
	return l
}

func putLog(l *runLog) {
	l.s, l.streaming = nil, false
	l.reset()
	logPool.Put(l)
}

// reset empties the log, keeping its storage.
func (l *runLog) reset() {
	l.recs, l.arena, l.stack = l.recs[:0], l.arena[:0], l.stack[:0]
}

// add takes one run of the task: into the log while the task is ahead of
// the front and the run fits, and otherwise, once the task is the front
// and its log replayed, straight to emit.
func (l *runLog) add(anc []xmldoc.Element, d xmldoc.Element) {
	if !l.streaming {
		if !l.s.isFront(l.i) && l.record(anc, d) {
			return
		}
		if !l.toFront() {
			return
		}
	}
	for _, a := range anc {
		l.s.emit(a, d)
	}
}

// record appends a run to the log, or reports false if it does not fit.
// The ancestors the run shares with the previous run's prefix — compared
// as whole elements, since a task may span documents whose elements share
// positions — are kept, the rest appended to the arena.
func (l *runLog) record(anc []xmldoc.Element, d xmldoc.Element) bool {
	k := 0
	for k < len(anc) && k < len(l.stack) && anc[k] == l.stack[k] {
		k++
	}
	added := anc[k:]
	n := len(l.recs)
	if (n+1)*recBytes+(len(l.arena)+len(added))*elemBytes > logBytes {
		return false
	}
	// The record is filled in place: a composite would be built in a
	// temporary first, and reloading an element just stored there stalls.
	if n < cap(l.recs) {
		l.recs = l.recs[:n+1]
	} else {
		l.recs = append(l.recs, logRec{})
	}
	r := &l.recs[n]
	r.keep, r.add, r.d = uint32(k), uint32(len(added)), d
	l.arena = append(l.arena, added...)
	l.stack = append(l.stack[:k], added...)
	return true
}

// toFront waits until the task is the front — at once when it already
// is — then replays the log and makes the task stream. It reports false,
// abandoning the log, if the run failed meanwhile.
func (l *runLog) toFront() bool {
	s := l.s
	if !s.isFront(l.i) {
		s.mu.Lock()
		for !s.isFront(l.i) && s.firstErr == nil {
			s.cond.Wait()
		}
		failed := s.firstErr != nil
		s.mu.Unlock()
		if failed {
			l.reset()
			return false
		}
	}
	l.replay()
	l.streaming = true
	return true
}

// replay hands the logged runs to the caller's emit in the order they were
// produced — through EachPair, the adapter the front task streams through —
// and empties the log.
func (l *runLog) replay() {
	run := l.s.run
	stack, pos := l.stack[:0], uint32(0)
	for i := range l.recs {
		r := &l.recs[i]
		stack = append(stack[:r.keep], l.arena[pos:pos+r.add]...)
		pos += r.add
		run(stack, r.d)
	}
	l.stack = stack
	l.reset()
}

// driverState is the shared state of one concurrent Parallel run. mu
// guards every field but emit, run, tasks and ahead, and every write of
// front, which running tasks also read without it; cond wakes tasks
// waiting to become the front and workers waiting for the window. Only the
// goroutine holding the front — running task front, or replaying its log —
// calls emit, never under mu.
type driverState struct {
	mu       sync.Mutex
	cond     sync.Cond
	emit     EmitFunc
	run      RunFunc // EachPair(emit)
	tasks    []Task
	ahead    int          // most tasks dispatched ahead of the front
	held     []*runLog    // per task: its log, once it finished ahead of the front
	front    atomic.Int64 // first task whose output has not fully reached emit
	next     int          // task dispatch counter
	merged   metrics.Counters
	firstErr error
}

// isFront reports whether task i is the front: every earlier task's output
// has reached emit, and no other goroutine calls it until i's has.
func (s *driverState) isFront(i int) bool { return s.front.Load() == int64(i) }

// aheadLocked reports whether task next may not start yet: it would run
// further ahead of the front than the window allows, or ahead of it at all
// as a per-pair producer, which has no log.
func (s *driverState) aheadLocked() bool {
	n := int64(s.next) - s.front.Load()
	return n > int64(s.ahead) || n > 0 && s.tasks[s.next].Runs == nil
}

// failLocked records the run's first error and wakes every waiter.
func (s *driverState) failLocked(err error) {
	if err != nil && s.firstErr == nil {
		s.firstErr = err
		s.cond.Broadcast()
	}
}

// advanceLocked moves the front past a task whose output has fully
// reached emit, replaying (outside mu) the held logs of the tasks that
// finished ahead of it, up to a task that delivers its own output. Each
// step wakes the waiters: the window has moved, so a worker may dispatch
// while the replay runs, and at the end a task may be the front.
func (s *driverState) advanceLocked() {
	for f := s.front.Add(1); f < int64(len(s.held)) && s.held[f] != nil && s.firstErr == nil; f = s.front.Add(1) {
		l := s.held[f]
		s.held[f] = nil
		s.cond.Broadcast()
		s.mu.Unlock()
		l.replay()
		putLog(l)
		s.mu.Lock()
	}
	s.cond.Broadcast()
}

// Parallel runs tasks on a pool of opts.Workers goroutines, streaming
// result pairs to emit in task order (the DocId order of the sequential
// loop; emit is called from the workers, one call at a time) and merging
// every task's counters into c. The merge happens per task under a lock
// and folds into c only after every worker has returned, so c needs no
// atomicity; c.Elapsed receives the driver's wall-clock time, not the sum
// of the per-task spans. A tracer carried by c receives events from all
// workers and must be safe for concurrent use (obs.Collector is).
func Parallel(tasks []Task, opts Options, emit EmitFunc, c *metrics.Counters) error {
	if emit == nil {
		emit = func(a, d xmldoc.Element) {}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	start := time.Now()
	var prior time.Duration
	if c != nil {
		prior = c.Elapsed
	}
	var err error
	if workers <= 1 {
		// Sequential fast path: no logs, counters accumulate in place.
		run := EachPair(emit)
		for i := range tasks {
			if err = runTask(&tasks[i], run, emit, c); err != nil {
				break
			}
		}
	} else {
		err = runConcurrent(tasks, workers, emit, c)
	}
	if err != nil {
		return err
	}
	if c != nil {
		// The driver's wall clock replaces the tasks' own spans, which
		// overlap when concurrent and would count twice when sequential.
		wall := time.Since(start)
		c.Elapsed = prior + wall
		c.Emit(obs.EvJoinSpan, int64(wall))
	}
	return nil
}

// runTask runs t with its output going to run, or, for a per-pair
// producer, to emit: the same output in the form t produces.
func runTask(t *Task, run RunFunc, emit EmitFunc, c *metrics.Counters) error {
	if t.Runs != nil {
		return t.Runs(run, c)
	}
	return t.Run(emit, c)
}

// runConcurrent is Parallel's worker pool for workers ≥ 2; the calling
// goroutine is one of the workers.
func runConcurrent(tasks []Task, workers int, emit EmitFunc, c *metrics.Counters) error {
	s := &driverState{emit: emit, run: EachPair(emit), tasks: tasks, ahead: 2*workers - 1, held: make([]*runLog, len(tasks))}
	s.cond.L = &s.mu
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			s.work(c)
		}()
	}
	s.work(c)
	wg.Wait()
	if s.firstErr != nil {
		return s.firstErr
	}
	// All workers have returned: nothing else touches c (including the
	// buffer pool's sink, if c is attached there), so a plain merge is safe.
	if c != nil {
		c.Add(&s.merged)
	}
	return nil
}

// work is one worker: it runs tasks until none is left or the run fails.
func (s *driverState) work(c *metrics.Counters) {
	var tracer obs.Tracer
	var ctx context.Context
	if c != nil {
		tracer, ctx = c.Tracer, c.Ctx
	}
	// A span-carrying tracer gets a child span per partition: their overlap
	// is the parallelism, their attributes split the request's page reads.
	spanner, _ := tracer.(obs.SpanTracer)
	// One counter set per worker, reset for each task: the tasks' calls
	// take its address, so a per-task set would be a heap allocation.
	local := new(metrics.Counters)
	s.mu.Lock()
	for {
		for s.next < len(s.tasks) && s.aheadLocked() && s.firstErr == nil {
			s.cond.Wait()
		}
		// A canceled run stops dispatching; a task in flight stops at its
		// next poll of the Ctx carried by its task-local counters.
		if ctx != nil && s.next < len(s.tasks) {
			s.failLocked(ctx.Err())
		}
		if s.firstErr != nil || s.next >= len(s.tasks) {
			s.mu.Unlock()
			return
		}
		i := s.next
		s.next++
		run, l := s.run, (*runLog)(nil)
		if !s.isFront(i) {
			l = getLog(s, i)
			run = l.run
		}
		s.mu.Unlock()

		tr := tracer
		var sp *obs.Span
		if spanner != nil {
			sp = spanner.StartSpan("task doc=" + strconv.FormatUint(uint64(s.tasks[i].DocID), 10))
			tr = sp
		}
		*local = metrics.Counters{Tracer: tr, Ctx: ctx}
		err := runTask(&s.tasks[i], run, s.emit, local)
		sp.End()

		s.mu.Lock()
		if s.failLocked(err); s.firstErr != nil {
			if l != nil {
				putLog(l)
			}
			continue
		}
		s.merged.Add(local)
		if l != nil && !l.streaming && !s.isFront(i) {
			// Whoever advances the front onto this task replays it.
			s.held[i] = l
			continue
		}
		if l != nil {
			// The task became the front while it ran: its log, if it
			// has not streamed, is the next output.
			s.mu.Unlock()
			l.replay()
			putLog(l)
			s.mu.Lock()
		}
		s.advanceLocked()
	}
}
