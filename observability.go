package xrtree

// Public surface of the observability layer (internal/obs): tracers,
// event collectors with histograms, per-join-phase breakdowns, and the
// derived skipping-effectiveness metric the paper's Table 3 discussion is
// about. Tracing is strictly opt-in — with no tracer attached every Emit
// call is two nil checks and zero allocations (see
// BenchmarkJoinTracerOverhead).

import "xrtree/internal/obs"

// Tracer receives structured trace events. Implementations must be safe
// for concurrent use; Collector is the standard implementation.
type Tracer = obs.Tracer

// EventKind identifies one traced operation kind.
type EventKind = obs.EventKind

// The trace event vocabulary (see internal/obs for each kind's value
// semantics: tree heights, scan lengths, skip distances, batch sizes,
// nanoseconds).
const (
	EvIndexDescend = obs.EvIndexDescend
	EvStabScan     = obs.EvStabScan
	EvLeafScan     = obs.EvLeafScan
	EvSkipDesc     = obs.EvSkipDesc
	EvSkipAnc      = obs.EvSkipAnc
	EvAncProbe     = obs.EvAncProbe
	EvOutput       = obs.EvOutput
	EvPageRead     = obs.EvPageRead
	EvPageWrite    = obs.EvPageWrite
	EvPageEvict    = obs.EvPageEvict
	EvJoinSpan     = obs.EvJoinSpan
)

// Request tracing (see internal/obs): Span implements Tracer, so a span
// attached through Stats.Tracer receives every engine event as a typed
// attribute while the events also roll up into the owning Trace. The
// serving layer creates one Trace per sampled request; embedders can do
// the same around any engine call.
type (
	// Span is one timed phase of a request trace; it implements Tracer.
	Span = obs.Span
	// SpanTracer is a Tracer that can open child spans (*Span implements
	// it); layers that want sub-structure type-assert the tracer they hold.
	SpanTracer = obs.SpanTracer
	// RequestTrace is one request's span tree plus an event rollup.
	RequestTrace = obs.Trace
	// TraceRecord is the exported, JSON-serializable form of a completed
	// trace — the element type of /debug/traces and xrtrace's input.
	TraceRecord = obs.TraceRecord
	// SpanRecord is the exported form of one span within a TraceRecord.
	SpanRecord = obs.SpanRecord
	// FlightRecorder retains the last N completed traces, pinning slow
	// outliers past a threshold.
	FlightRecorder = obs.FlightRecorder
)

// NewRequestTrace starts a request trace and its root span. A zero id
// mints a fresh one; next (usually a Collector) receives a copy of every
// span event.
func NewRequestTrace(name string, id obs.TraceID, parent obs.SpanID, ids *obs.IDSource, next Tracer) *RequestTrace {
	return obs.NewTrace(name, id, parent, ids, next)
}

// NewFlightRecorder returns a recorder holding the last size completed
// traces plus pinned slow traces.
func NewFlightRecorder(size, pinned int) *FlightRecorder {
	return obs.NewFlightRecorder(size, pinned)
}

// Collector is the standard Tracer: lock-free per-kind counters and
// fixed-bucket histograms of event values.
type Collector = obs.Collector

// NewCollector returns an empty Collector ready to attach as a Tracer.
func NewCollector() *Collector { return obs.NewCollector() }

// JoinPhases is the per-phase breakdown of one traced join: ancestor
// probing, ancestor/descendant skipping, and output emission.
type JoinPhases = obs.JoinPhases

// TraceSnapshot is a point-in-time export of a Collector: per-event counts,
// value sums, and histograms, JSON-serializable.
type TraceSnapshot = obs.Snapshot

// SkippingEffectiveness is the fraction of input elements a join avoided
// scanning: 1 − scanned/total, clamped to [0, 1]. The paper's Table 3
// argument is that XR-stack keeps this near 1 on low-selectivity joins.
func SkippingEffectiveness(scanned, total int64) float64 {
	return obs.SkippingEffectiveness(scanned, total)
}

// SetTracer installs tr as the store's default tracer (nil removes it).
// The tracer observes physical page I/O on the store's file; operations
// that take a *Stats with their own Tracer see events routed there while
// an AttachStats attachment is live.
func (s *Store) SetTracer(tr Tracer) {
	s.tracer = tr
	s.file.SetTracer(tr)
}

// JoinReport is the full observation of one traced join run.
type JoinReport struct {
	// Alg is the algorithm that ran.
	Alg Algorithm `json:"alg"`
	// Stats holds the classic counters (elements scanned, hits, misses,
	// physical I/O, output pairs, elapsed).
	Stats Stats `json:"-"`
	// Phases breaks the join into its phases: ancestor probes, skips on
	// either side with total skip distances, and output batches.
	Phases JoinPhases `json:"phases"`
	// Events is the raw per-event snapshot including histograms.
	Events TraceSnapshot `json:"events"`
	// SkipEffectiveness is 1 − scanned/(len(a)+len(d)), clamped to [0, 1].
	SkipEffectiveness float64 `json:"skip_effectiveness"`
	// FingerHitShare is the share of the join's index steps (seeks and
	// ancestor probes) answered from the leaf a cursor already held,
	// without a root-to-leaf descent: Stats.FingerHits over FingerHits +
	// FingerMisses, 0 for algorithms that take no such steps.
	FingerHitShare float64 `json:"finger_hit_share"`
}

// ObservedJoin is Join with a fresh Collector attached, returning the
// complete observation: classic counters, per-phase breakdown, raw event
// histograms, and skipping effectiveness. Buffer-pool and physical-I/O
// costs of the sets' store(s) are attributed to the run. The counts land
// in the report; st is read only for its Ctx, which cancels the run as it
// does Join's (nil means no cancellation).
func ObservedJoin(alg Algorithm, mode Mode, a, d *ElementSet, emit EmitFunc, st *Stats) (*JoinReport, error) {
	return observe(alg, st, []*Store{a.store, d.store}, func(run *Stats) (int64, error) {
		return int64(a.Len() + d.Len()), Join(alg, mode, a, d, emit, run)
	})
}

// ObservedParallelJoin is Collection.ParallelJoin with a fresh Collector
// attached, returning one merged observation: the workers' counters fold
// into a single Stats, and their trace events — emitted concurrently into
// the lock-free Collector — yield one phase breakdown and histogram set
// spanning the whole run. Stats.Elapsed is the driver's wall-clock time,
// and skip effectiveness counts the inputs of the documents the join ran
// over. st supplies the Ctx as it does for ObservedJoin.
func (c *Collection) ObservedParallelJoin(alg Algorithm, mode Mode, ancTag, descTag string, emit EmitFunc, st *Stats, opts ParallelJoinOptions) (*JoinReport, error) {
	return observe(alg, st, []*Store{c.store}, func(run *Stats) (int64, error) {
		return c.parallelJoin(alg, mode, ancTag, descTag, emit, run, opts)
	})
}

// observe is the one builder of a JoinReport. It runs fn on a fresh
// counter set carrying st's Ctx and a fresh Collector, attached to each
// store for the run, then derives the report from the counters and the
// collector. fn returns the input size skip effectiveness is measured
// against.
func observe(alg Algorithm, st *Stats, stores []*Store, fn func(run *Stats) (int64, error)) (*JoinReport, error) {
	col := NewCollector()
	run := Stats{Tracer: col}
	if st != nil {
		run.Ctx = st.Ctx
	}
	for _, s := range stores {
		s.AttachStats(&run)
	}
	inputs, err := fn(&run)
	for _, s := range stores {
		s.AttachStats(nil) //xrvet:nocounters detaches the run's counters
	}
	if err != nil {
		return nil, err
	}
	// Physical I/O is counted at the file layer, not in the per-run
	// counter set; the tracer saw every page event, so recover the counts
	// from it.
	run.PhysicalReads = col.Count(obs.EvPageRead)
	run.PhysicalWrites = col.Count(obs.EvPageWrite)
	return &JoinReport{
		Alg:               alg,
		Stats:             run,
		Phases:            col.JoinPhases(),
		Events:            col.Snapshot(),
		SkipEffectiveness: SkippingEffectiveness(run.ElementsScanned, inputs),
		FingerHitShare:    run.FingerHitShare(),
	}, nil
}
