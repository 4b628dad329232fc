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
// Output ordering uses a chunked head-streaming scheme: the task at the
// front of the flush order streams its pairs to the caller's emit in
// fixed-size chunks, while tasks running ahead of the front spill their
// chunks aside; when the front task finishes, the spilled chunks of the
// next tasks drain in order and the new front task switches to streaming.
// Chunks are recycled through a sync.Pool, so an output-heavy join does
// not allocate proportionally to its result size the way a naive
// buffer-everything merge would (which showed up as a GC-bound slowdown
// well below sequential speed in profiles).

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

// emitChunkPairs is the spill-chunk size: 2048 pairs ≈ 80 KiB, large
// enough to amortize the lock per delivery, small enough to recycle.
const emitChunkPairs = 2048

var chunkPool = sync.Pool{New: func() any {
	s := make([]Pair, 0, emitChunkPairs)
	return &s
}}

func getChunk() []Pair      { return *(chunkPool.Get().(*[]Pair)) }
func putChunk(chunk []Pair) { chunk = chunk[:0]; chunkPool.Put(&chunk) }

// driverState is the shared merge state of one Parallel run; mu guards
// everything, including calls to the caller's emit (which must serialize).
type driverState struct {
	mu        sync.Mutex
	emit      EmitFunc
	spill     [][][]Pair // per task: completed chunks waiting for the front
	done      []bool
	flushNext int // first task whose output has not fully reached emit
	merged    metrics.Counters
	firstErr  error
	failed    bool
	next      int // task dispatch counter
}

// drainLocked advances the front: emit spilled chunks in task order until
// reaching an unfinished task (which then streams directly) or the end.
func (s *driverState) drainLocked() {
	for s.flushNext < len(s.done) {
		j := s.flushNext
		for _, chunk := range s.spill[j] {
			for _, p := range chunk {
				s.emit(p.A, p.D)
			}
			putChunk(chunk)
		}
		s.spill[j] = nil
		if !s.done[j] {
			return
		}
		s.flushNext++
	}
}

// taskEmitter is the per-task EmitFunc target: pairs accumulate in a
// pooled chunk; full chunks either stream to the caller (front task) or
// spill aside (tasks ahead of the front).
type taskEmitter struct {
	s     *driverState
	i     int
	chunk []Pair
}

func (e *taskEmitter) emit(a, d xmldoc.Element) {
	e.chunk = append(e.chunk, Pair{A: a, D: d})
	if len(e.chunk) == cap(e.chunk) {
		e.deliver()
	}
}

func (e *taskEmitter) deliver() {
	s := e.s
	s.mu.Lock()
	e.deliverLocked()
	s.mu.Unlock()
}

func (e *taskEmitter) deliverLocked() {
	s := e.s
	switch {
	case s.failed:
		// A task already failed: the run's output is abandoned, keep the
		// chunk for reuse.
		e.chunk = e.chunk[:0]
	case e.i == s.flushNext:
		// Front task: stream through and reuse the chunk in place. Any
		// spill this task accumulated before becoming the front was drained
		// when the front reached it.
		for _, p := range e.chunk {
			s.emit(p.A, p.D)
		}
		e.chunk = e.chunk[:0]
	default:
		s.spill[e.i] = append(s.spill[e.i], e.chunk)
		e.chunk = getChunk()
	}
}

// finishLocked delivers the final partial chunk, marks the task done, and
// advances the front past it if it was the front.
func (e *taskEmitter) finishLocked() {
	if len(e.chunk) > 0 {
		e.deliverLocked()
	}
	s := e.s
	s.done[e.i] = true
	if e.i == s.flushNext {
		s.flushNext++
		s.drainLocked()
	}
	putChunk(e.chunk)
	e.chunk = nil
}

// Parallel runs tasks on a pool of opts.Workers goroutines, streaming
// result pairs to emit in task order (the DocId order of the sequential
// loop) and merging every task's counters into c. The merge happens
// per-task under a lock and folds into c only after every worker has
// returned, so c needs no atomicity; c.Elapsed receives the driver's
// wall-clock time, not the sum of the per-task spans. A tracer
// carried by c receives events from all workers and must be safe for
// concurrent use (obs.Collector is).
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

// runConcurrent is Parallel's worker pool for workers ≥ 2.
func runConcurrent(tasks []Task, workers int, emit EmitFunc, c *metrics.Counters) error {
	var tracer obs.Tracer
	var ctx context.Context
	if c != nil {
		tracer = c.Tracer
		ctx = c.Ctx
	}
	// When the caller's tracer carries spans, each partition gets a child
	// span so a request trace shows the per-document tasks individually
	// (their overlap is the parallelism; their attributes partition the
	// request's page reads and scans). Flat tracers see the same event
	// stream as before.
	spanner, _ := tracer.(obs.SpanTracer)
	s := &driverState{
		emit:  emit,
		spill: make([][][]Pair, len(tasks)),
		done:  make([]bool, len(tasks)),
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				s.mu.Lock()
				if s.failed || s.next >= len(tasks) {
					s.mu.Unlock()
					return
				}
				i := s.next
				s.next++
				s.mu.Unlock()

				// A canceled run stops dispatching new partitions; the one
				// in flight on each worker stops at its next poll point via
				// the Ctx carried by the task-local counters.
				if ctx != nil {
					if err := ctx.Err(); err != nil {
						s.mu.Lock()
						if !s.failed {
							s.failed = true
							s.firstErr = err
						}
						s.mu.Unlock()
						return
					}
				}

				tr := tracer
				var sp *obs.Span
				if spanner != nil {
					sp = spanner.StartSpan("task doc=" + strconv.FormatUint(uint64(tasks[i].DocID), 10))
					tr = sp
				}
				local := metrics.Counters{Tracer: tr, Ctx: ctx}
				e := &taskEmitter{s: s, i: i, chunk: getChunk()}
				err := tasks[i].Run(e.emit, &local)
				sp.End()

				s.mu.Lock()
				if err != nil {
					if !s.failed {
						s.failed = true
						s.firstErr = err
					}
					putChunk(e.chunk)
					s.mu.Unlock()
					return
				}
				s.merged.Add(&local)
				e.finishLocked()
				s.mu.Unlock()
			}
		}()
	}
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
