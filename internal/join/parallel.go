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
// Output crosses goroutines only where that pays. The front task (the
// first whose pairs have not all reached the caller) calls the caller's
// emit directly. A task ahead of the front buffers into one pooled chunk:
// if it finishes inside it, the goroutine that advances the front replays
// the chunk; if the chunk fills, the task waits to become the front, then
// flushes it and streams the rest itself. A full chunk marks the run
// dense: no task is dispatched ahead of the front from then on, so dense
// output runs at one-worker speed instead of paying a copy and a
// cross-core replay per pair, while output-light runs — and a cluster
// fan-out, whose tasks fetch a whole shard response before their first
// emit — stay fully concurrent.

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"time"

	"xrtree/internal/metrics"
	"xrtree/internal/obs"
	"xrtree/internal/xmldoc"
)

// Task is one independent partition of a parallel join: typically the two
// access paths of one document, closed over by Run. Run must stream its
// pairs to the provided emit and account costs into the provided counters
// (which carry the shared tracer); it must not retain either after
// returning.
type Task struct {
	DocID uint32
	Run   func(emit EmitFunc, c *metrics.Counters) error
}

// Options configures Parallel.
type Options struct {
	// Workers is the number of join goroutines; ≤ 0 selects GOMAXPROCS.
	// 1 runs the tasks sequentially in the calling goroutine.
	Workers int
}

// emitChunkPairs is the most pairs a task ahead of the front buffers:
// 2048 pairs ≈ 80 KiB.
const emitChunkPairs = 2048

var chunkPool = sync.Pool{New: func() any {
	s := make([]Pair, 0, emitChunkPairs)
	return &s
}}

func getChunk() []Pair      { return *(chunkPool.Get().(*[]Pair)) }
func putChunk(chunk []Pair) { chunk = chunk[:0]; chunkPool.Put(&chunk) }

// driverState is the shared state of one concurrent Parallel run. mu
// guards every field but emit and tasks; cond wakes tasks waiting to
// become the front and idle workers. Only the goroutine holding the front
// — running task front, or replaying its chunk — calls emit, never under mu.
type driverState struct {
	mu       sync.Mutex
	cond     sync.Cond
	emit     EmitFunc
	tasks    []Task
	held     [][]Pair // per task: its chunk, once it finished ahead of the front
	front    int      // first task whose output has not fully reached emit
	next     int      // task dispatch counter
	dense    bool     // a task filled its chunk: dispatch none ahead of the front
	merged   metrics.Counters
	firstErr error
}

// failLocked records the run's first error and wakes every waiter.
func (s *driverState) failLocked(err error) {
	if err != nil && s.firstErr == nil {
		s.firstErr = err
		s.cond.Broadcast()
	}
}

// advanceLocked moves the front past a task whose output has fully
// reached emit, replaying (outside mu) the held chunks of the tasks that
// finished ahead of it, up to a task that delivers its own output. It
// wakes the waiters unless that task is undispatched — the calling
// worker's own next task — and the run goes on.
func (s *driverState) advanceLocked() {
	for s.front++; s.front < len(s.held) && s.held[s.front] != nil && s.firstErr == nil; s.front++ {
		chunk := s.held[s.front]
		s.held[s.front] = nil
		s.mu.Unlock()
		replay(chunk, s.emit)
		s.mu.Lock()
	}
	if s.front != s.next || s.next == len(s.tasks) {
		s.cond.Broadcast()
	}
}

func replay(chunk []Pair, emit EmitFunc) {
	for _, p := range chunk {
		emit(p.A, p.D)
	}
	putChunk(chunk)
}

// taskEmitter holds the output of a task dispatched ahead of the front.
type taskEmitter struct {
	s         *driverState
	i         int
	chunk     []Pair
	streaming bool
}

// buffer adds a pair to the chunk. With the chunk full, it marks the run
// dense and waits to become the front, then flushes the chunk and streams.
func (e *taskEmitter) buffer(a, d xmldoc.Element) {
	if len(e.chunk) < cap(e.chunk) {
		e.chunk = append(e.chunk, Pair{A: a, D: d})
		return
	}
	s := e.s
	s.mu.Lock()
	s.dense = true
	for s.front != e.i && s.firstErr == nil {
		s.cond.Wait()
	}
	failed := s.firstErr != nil
	s.mu.Unlock()
	if failed {
		e.chunk = e.chunk[:0] // the run's output is abandoned
		return
	}
	replay(e.chunk, s.emit)
	e.streaming = true
	s.emit(a, d)
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
		// Sequential fast path: no buffering, counters accumulate in place.
		for _, t := range tasks {
			if err = t.Run(emit, c); err != nil {
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

// runConcurrent is Parallel's worker pool for workers ≥ 2; the calling
// goroutine is one of the workers.
func runConcurrent(tasks []Task, workers int, emit EmitFunc, c *metrics.Counters) error {
	s := &driverState{emit: emit, tasks: tasks, held: make([][]Pair, len(tasks))}
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
	s.mu.Lock()
	for {
		for s.dense && s.next != s.front && s.next < len(s.tasks) && s.firstErr == nil {
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
		run, e := s.emit, (*taskEmitter)(nil)
		if i != s.front {
			e = &taskEmitter{s: s, i: i, chunk: getChunk()}
			emit := s.emit
			run = func(a, d xmldoc.Element) {
				if e.streaming {
					emit(a, d) // dense output: keep this path one call deep
				} else {
					e.buffer(a, d)
				}
			}
		}
		s.mu.Unlock()

		tr := tracer
		var sp *obs.Span
		if spanner != nil {
			sp = spanner.StartSpan("task doc=" + strconv.FormatUint(uint64(s.tasks[i].DocID), 10))
			tr = sp
		}
		local := metrics.Counters{Tracer: tr, Ctx: ctx}
		err := s.tasks[i].Run(run, &local)
		sp.End()

		s.mu.Lock()
		if s.failLocked(err); s.firstErr != nil {
			continue
		}
		s.merged.Add(&local)
		if e != nil && !e.streaming {
			if s.front != i {
				// Whoever advances the front onto this task replays it.
				s.held[i] = e.chunk
				continue
			}
			// This task became the front while it ran.
			s.mu.Unlock()
			replay(e.chunk, s.emit)
			s.mu.Lock()
		}
		s.advanceLocked()
	}
}
