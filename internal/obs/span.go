package obs

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Request tracing: a lightweight span tree built on the same EventKind
// vocabulary as the Collector. A Trace is one request's causal record; its
// Spans are the phases the request passed through (admission, join, the
// per-document tasks of a parallel join). A Span implements Tracer, so the
// existing metrics.Counters.Tracer plumbing threads span attribution
// through every instrumented layer without a signature change: whichever
// span is carried by the counters a layer works against receives that
// layer's events as typed attributes, and every event also rolls up into
// the trace's totals and an optional downstream Tracer (a Collector).
//
// Identifiers follow the W3C Trace Context format (traceparent header:
// 00-<16-byte trace id>-<8-byte span id>-<flags>), so traces propagate
// across the HTTP boundary — xrblast stamps outgoing requests and xrserve
// adopts or mints ids accordingly.

// TraceID identifies one request trace (16 bytes, hex-encoded on the wire).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, hex on the wire).
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 32-character lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String returns the 16-character lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID decodes a 32-character hex trace id.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return t, !t.IsZero()
}

// ParseSpanID decodes a 16-character hex span id.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 16 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return SpanID{}, false
	}
	return id, !id.IsZero()
}

// Traceparent renders a W3C trace-context header value (version 00).
func Traceparent(t TraceID, s SpanID, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + t.String() + "-" + s.String() + "-" + flags
}

// ParseTraceparent decodes a W3C traceparent header value. It accepts any
// version whose first four fields follow the version-00 layout, per spec.
func ParseTraceparent(h string) (t TraceID, parent SpanID, sampled bool, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 || len(parts[0]) != 2 || parts[0] == "ff" {
		return TraceID{}, SpanID{}, false, false
	}
	t, ok = ParseTraceID(parts[1])
	if !ok {
		return TraceID{}, SpanID{}, false, false
	}
	parent, ok = ParseSpanID(parts[2])
	if !ok {
		return TraceID{}, SpanID{}, false, false
	}
	if len(parts[3]) != 2 {
		return TraceID{}, SpanID{}, false, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(parts[3])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	return t, parent, flags[0]&1 == 1, true
}

// IDSource generates trace and span ids. A zero seed draws a random one;
// a fixed seed makes the id sequence (and nothing else) deterministic,
// which the trace tests rely on. Safe for concurrent use.
type IDSource struct {
	mu  sync.Mutex
	rng *mrand.Rand
}

// NewIDSource returns an id generator. seed == 0 selects a random seed.
func NewIDSource(seed uint64) *IDSource {
	if seed == 0 {
		seed = mrand.Uint64() | 1
	}
	return &IDSource{rng: mrand.New(mrand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// TraceID returns a fresh non-zero trace id.
func (s *IDSource) TraceID() TraceID {
	var t TraceID
	s.mu.Lock()
	for t.IsZero() {
		binary.LittleEndian.PutUint64(t[0:8], s.rng.Uint64())
		binary.LittleEndian.PutUint64(t[8:16], s.rng.Uint64())
	}
	s.mu.Unlock()
	return t
}

// SpanID returns a fresh non-zero span id.
func (s *IDSource) SpanID() SpanID {
	var id SpanID
	s.mu.Lock()
	for id.IsZero() {
		binary.LittleEndian.PutUint64(id[:], s.rng.Uint64())
	}
	s.mu.Unlock()
	return id
}

// Sampler makes head-based trace-sampling decisions at the given rate in
// [0, 1]. A zero seed draws a random one; a fixed seed makes the decision
// sequence deterministic. Safe for concurrent use; the rate-0 fast path
// takes no lock.
type Sampler struct {
	rate float64
	mu   sync.Mutex
	rng  *mrand.Rand
}

// NewSampler returns a sampler; rates outside [0, 1] are clamped.
func NewSampler(rate float64, seed uint64) *Sampler {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	if seed == 0 {
		seed = mrand.Uint64() | 1
	}
	return &Sampler{rate: rate, rng: mrand.New(mrand.NewPCG(seed, seed^0xd1b54a32d192ed03))}
}

// Rate returns the configured sampling rate.
func (s *Sampler) Rate() float64 { return s.rate }

// Sample returns the next head-sampling decision.
func (s *Sampler) Sample() bool {
	if s.rate <= 0 {
		return false
	}
	if s.rate >= 1 {
		return true
	}
	s.mu.Lock()
	v := s.rng.Float64()
	s.mu.Unlock()
	return v < s.rate
}

// SpanTracer is a Tracer that can open child spans. *Span implements it;
// layers that want sub-structure (the parallel join driver's per-document
// tasks) type-assert the tracer they were handed and fall back to flat
// event emission when the assertion fails.
type SpanTracer interface {
	Tracer
	StartSpan(name string) *Span
}

// maxTraceSpans bounds one trace's exported span list. Spans past the
// bound still work (their events roll up into the totals and the parent
// chain stays intact) but are dropped from the record, counted in
// TraceRecord.DroppedSpans.
const maxTraceSpans = 512

// Span is one node of a trace: a named, timed phase whose typed attributes
// are the events (EventKind, value) recorded while it was the current
// tracer. All methods are nil-safe and safe for concurrent use.
type Span struct {
	trace  *Trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	durNS  atomic.Int64
	ended  atomic.Bool
	counts [NumEvents]atomic.Int64
	sums   [NumEvents]atomic.Int64
}

// ID returns the span id.
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Event records one event as a span attribute, rolls it into the trace
// totals, and forwards it to the trace's downstream sink.
func (s *Span) Event(kind EventKind, value int64) {
	if s == nil || kind >= NumEvents {
		return
	}
	s.counts[kind].Add(1)
	s.sums[kind].Add(value)
	t := s.trace
	t.totalCounts[kind].Add(1)
	t.totalSums[kind].Add(value)
	if t.next != nil {
		t.next.Event(kind, value)
	}
}

// Count returns how many events of the kind this span recorded.
func (s *Span) Count(kind EventKind) int64 {
	if s == nil || kind >= NumEvents {
		return 0
	}
	return s.counts[kind].Load()
}

// StartSpan opens a child span. The child must be ended by its owner.
func (s *Span) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	return s.trace.newSpan(name, s.id)
}

// End closes the span, fixing its duration. Idempotent.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.durNS.Store(int64(time.Since(s.start)))
}

// EndDur closes the span with an explicit duration — the serving layer
// passes the same measurement it emits as EvServeSpan, so the root span
// duration and the request-latency histogram agree exactly. Idempotent.
func (s *Span) EndDur(d time.Duration) {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.durNS.Store(int64(d))
}

// Trace is one request's span tree plus an event rollup. Create with
// NewTrace, thread Root (or children) through metrics.Counters.Tracer,
// End the root, then Record for the exportable form.
type Trace struct {
	id     TraceID
	remote SpanID // parent span of an incoming traceparent, if any
	start  time.Time
	ids    *IDSource
	next   Tracer // optional downstream sink; receives every span event

	totalCounts [NumEvents]atomic.Int64
	totalSums   [NumEvents]atomic.Int64

	mu      sync.Mutex
	spans   []*Span
	dropped int
}

// NewTrace starts a trace and its root span. A zero id mints a fresh one
// from ids; remote is the parent span id of an incoming traceparent (zero
// when the trace originates here). next, when non-nil, receives every
// event recorded on any span (obs.Collector is the usual choice).
func NewTrace(name string, id TraceID, remote SpanID, ids *IDSource, next Tracer) *Trace {
	if ids == nil {
		ids = NewIDSource(0)
	}
	if id.IsZero() {
		id = ids.TraceID()
	}
	t := &Trace{id: id, remote: remote, start: time.Now(), ids: ids, next: next}
	t.newSpan(name, remote)
	return t
}

// ID returns the trace id.
func (t *Trace) ID() TraceID { return t.id }

// Root returns the root span.
func (t *Trace) Root() *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[0]
}

// SetSink directs a copy of every span event to next (nil detaches). Call
// before any events flow; the field is not synchronized against Event.
func (t *Trace) SetSink(next Tracer) { t.next = next }

// Total returns the trace-wide count of events of the kind across all
// spans — the per-request counter delta the span attributes must account
// for.
func (t *Trace) Total(kind EventKind) int64 {
	if kind >= NumEvents {
		return 0
	}
	return t.totalCounts[kind].Load()
}

func (t *Trace) newSpan(name string, parent SpanID) *Span {
	s := &Span{trace: t, id: t.ids.SpanID(), parent: parent, name: name, start: time.Now()}
	t.mu.Lock()
	if len(t.spans) < maxTraceSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return s
}

// AttrValue is one exported span attribute: how many events of a kind a
// span recorded and the sum of their values.
type AttrValue struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
}

// SpanRecord is the exported form of one span. StartNS is the offset from
// the trace start, so a renderer can lay spans on one timeline.
type SpanRecord struct {
	ID      string               `json:"id"`
	Parent  string               `json:"parent,omitempty"`
	Name    string               `json:"name"`
	StartNS int64                `json:"start_ns"`
	DurNS   int64                `json:"dur_ns"`
	Attrs   map[string]AttrValue `json:"attrs,omitempty"`
}

// TraceRecord is the exported form of one completed trace: the shape of
// one entry of /debug/traces and the input of the xrtrace pretty-printer.
type TraceRecord struct {
	TraceID      string               `json:"trace_id"`
	RemoteParent string               `json:"remote_parent,omitempty"`
	Name         string               `json:"name"`
	Start        time.Time            `json:"start"`
	DurNS        int64                `json:"dur_ns"`
	Pinned       bool                 `json:"pinned,omitempty"`
	DroppedSpans int                  `json:"dropped_spans,omitempty"`
	Spans        []SpanRecord         `json:"spans"`
	Totals       map[string]AttrValue `json:"totals,omitempty"`
}

// Record exports the trace. It ends the root span if still open; spans
// left open are charged up to the trace end. Call after the request is
// done — Record does not synchronize with concurrent span activity.
func (t *Trace) Record() *TraceRecord {
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	dropped := t.dropped
	t.mu.Unlock()

	root := spans[0]
	root.End()
	rootDur := root.durNS.Load()

	rec := &TraceRecord{
		TraceID:      t.id.String(),
		Name:         root.name,
		Start:        t.start,
		DurNS:        rootDur,
		DroppedSpans: dropped,
		Spans:        make([]SpanRecord, 0, len(spans)),
	}
	if !t.remote.IsZero() {
		rec.RemoteParent = t.remote.String()
	}
	for _, s := range spans {
		startNS := int64(s.start.Sub(t.start))
		dur := s.durNS.Load()
		if !s.ended.Load() {
			if dur = rootDur - startNS; dur < 0 {
				dur = 0
			}
		}
		sr := SpanRecord{
			ID:      s.id.String(),
			Name:    s.name,
			StartNS: startNS,
			DurNS:   dur,
		}
		if !s.parent.IsZero() {
			sr.Parent = s.parent.String()
		}
		for k := EventKind(0); k < NumEvents; k++ {
			if n := s.counts[k].Load(); n > 0 {
				if sr.Attrs == nil {
					sr.Attrs = make(map[string]AttrValue)
				}
				sr.Attrs[k.String()] = AttrValue{Count: n, Sum: s.sums[k].Load()}
			}
		}
		rec.Spans = append(rec.Spans, sr)
	}
	for k := EventKind(0); k < NumEvents; k++ {
		if n := t.totalCounts[k].Load(); n > 0 {
			if rec.Totals == nil {
				rec.Totals = make(map[string]AttrValue)
			}
			rec.Totals[k.String()] = AttrValue{Count: n, Sum: t.totalSums[k].Load()}
		}
	}
	return rec
}

// WriteText renders the trace as an indented span tree for humans: one
// line per span with its duration and attribute digest, children indented
// under their parents in start order.
func (r *TraceRecord) WriteText(w io.Writer) error {
	flags := ""
	if r.Pinned {
		flags = "  [slow]"
	}
	if _, err := fmt.Fprintf(w, "trace %s  %s  %.3fms  spans=%d%s\n",
		r.TraceID, r.Name, float64(r.DurNS)/1e6, len(r.Spans), flags); err != nil {
		return err
	}
	if r.DroppedSpans > 0 {
		if _, err := fmt.Fprintf(w, "  (%d spans dropped past the per-trace cap)\n", r.DroppedSpans); err != nil {
			return err
		}
	}
	children := make(map[string][]int)
	ids := make(map[string]bool, len(r.Spans))
	for _, s := range r.Spans {
		ids[s.ID] = true
	}
	var roots []int
	for i, s := range r.Spans {
		if s.Parent != "" && ids[s.Parent] {
			children[s.Parent] = append(children[s.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	var walk func(idx int, depth int) error
	walk = func(idx, depth int) error {
		s := r.Spans[idx]
		if _, err := fmt.Fprintf(w, "%s- %-32s %9.3fms%s\n",
			strings.Repeat("  ", depth+1), s.Name, float64(s.DurNS)/1e6, attrDigest(s.Attrs)); err != nil {
			return err
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return r.Spans[kids[a]].StartNS < r.Spans[kids[b]].StartNS })
		for _, k := range kids {
			if err := walk(k, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	sort.Slice(roots, func(a, b int) bool { return r.Spans[roots[a]].StartNS < r.Spans[roots[b]].StartNS })
	for _, i := range roots {
		if err := walk(i, 0); err != nil {
			return err
		}
	}
	return nil
}

// attrDigest renders a span's attributes compactly in stable order:
// "Kind=count" when every event carried value 1, "Kind:n=c,sum=s"
// otherwise. Duration-valued serve/join kinds render their sums as
// milliseconds.
func attrDigest(attrs map[string]AttrValue) string {
	if len(attrs) == 0 {
		return ""
	}
	names := make([]string, 0, len(attrs))
	for name := range attrs {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		a := attrs[name]
		switch {
		case name == EvJoinSpan.String() || name == EvServeSpan.String() || name == EvServeQueueWait.String():
			fmt.Fprintf(&b, "  %s=%.3fms", name, float64(a.Sum)/1e6)
		case a.Sum == a.Count:
			fmt.Fprintf(&b, "  %s=%d", name, a.Count)
		default:
			fmt.Fprintf(&b, "  %s:n=%d,sum=%d", name, a.Count, a.Sum)
		}
	}
	return b.String()
}
