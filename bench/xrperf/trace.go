package main

// Span recording for the traced run. Spans are recorded from the
// benchmark's own files, around its calls into each layer: source
// decorators for the join algorithms, an http.RoundTripper for the serving
// workload, and plain begin/end pairs around library calls. Nothing inside
// the program is touched.
//
// Each load goroutine owns one lane, so recording takes no lock. A span is
// (name, start, end, parent, op); spans of one operation share the op id.
// Calls too cheap to time one by one (iterator Next/Peek, the emit
// callback) are recorded as one aggregate child per owner: calls counted
// exactly, busy time sampled on every eighth call and scaled.
//
// All spans are folded into a per-name table (count, calls, busy, self);
// only the first keepOps operations of each lane keep their individual
// spans for the trace file, which bounds its size.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"xrtree/internal/join"
	"xrtree/internal/metrics"
	"xrtree/internal/xmldoc"
)

const (
	keepOps     = 2 // operations per lane whose spans are written out
	sampleEvery = 8 // cheap calls: time one in this many
)

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // -1 for an operation's root span
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	// Busy is End−Start less one clock read for a timed call; for an
	// aggregate child it is the summed (sampled, scaled) time of Calls
	// calls inside [Start,End].
	Busy  int64 `json:"busy_ns"`
	Calls int64 `json:"calls"`
}

type aggRow struct {
	Spans int64 `json:"spans"`
	Calls int64 `json:"calls"`
	Busy  int64 `json:"busy_ns"`
	Self  int64 `json:"self_ns"` // busy minus the busy time of child spans
}

type tracer struct {
	t0    time.Time
	lanes []*lane
	// clock is the time one timed interval spends reading the clock,
	// measured once and taken off every recorded busy time: without it a
	// 20 ns iterator step timed with a 35 ns clock reads three times too
	// long and a join's children outgrow the join.
	clock int64
}

func newTracer(lanes int) *tracer {
	t := &tracer{t0: time.Now()}
	const n = 20000
	var sum int64
	for i := 0; i < n; i++ {
		start := int64(time.Since(t.t0))
		sum += int64(time.Since(t.t0)) - start
	}
	t.clock = sum / n
	for i := 0; i < lanes; i++ {
		t.lanes = append(t.lanes, &lane{tr: t, base: int64(i) << 32, agg: map[string]*aggRow{}, cur: -1})
	}
	return t
}

// lane is one goroutine's span log.
type lane struct {
	tr    *tracer
	base  int64
	spans []span
	cur   int32 // index of the innermost open span, -1 outside an operation
	idOff int64 // spans folded so far: keeps ids unique across operations
	ops   int64
	agg   map[string]*aggRow
	kept  []span
	// mark is a span index a wrapper leaves for the load loop, so that a
	// later aggregate can be filed under a span that has already ended.
	mark int32
}

func (l *lane) now() int64 { return int64(time.Since(l.tr.t0)) }

// id maps a span index of the running operation to its trace-wide id.
func (l *lane) id(idx int32) int64 {
	if idx < 0 {
		return -1
	}
	return l.base | (l.idOff + int64(idx))
}

// begin opens a span under the innermost open one.
func (l *lane) begin(name string) int32 {
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{ID: l.id(id), Parent: l.id(l.cur), Op: l.base | l.ops, Name: name, Start: l.now(), Calls: 1})
	l.cur = id
	return id
}

// end closes span id and makes its parent the innermost open span again.
func (l *lane) end(id int32) {
	s := &l.spans[id]
	s.End = l.now()
	s.Busy = max(0, s.End-s.Start-l.tr.clock)
	if s.Parent < 0 {
		l.cur = -1
	} else {
		l.cur = int32(s.Parent&^l.base - l.idOff)
	}
}

// aggregate records calls cheap calls totalling busy ns as one child of
// the innermost open span.
func (l *lane) aggregate(name string, first, last, busy, calls int64) {
	l.aggregateUnder(l.cur, name, first, last, busy, calls)
}

// aggregateUnder is aggregate with an explicit parent span index.
func (l *lane) aggregateUnder(parent int32, name string, first, last, busy, calls int64) {
	if calls == 0 {
		return
	}
	l.spans = append(l.spans, span{ID: l.id(int32(len(l.spans))), Parent: l.id(parent), Op: l.base | l.ops,
		Name: name, Start: first, End: last, Busy: busy, Calls: calls})
}

// endOp closes an operation's root span and folds the operation into the
// per-name table.
func (l *lane) endOp(root int32) {
	l.end(root)
	op := l.spans
	child := make(map[int64]int64, len(op))
	for _, s := range op {
		if s.Parent >= 0 {
			child[s.Parent] += s.Busy
		}
	}
	for _, s := range op {
		r := l.agg[s.Name]
		if r == nil {
			r = &aggRow{}
			l.agg[s.Name] = r
		}
		r.Spans++
		r.Calls += s.Calls
		r.Busy += s.Busy
		r.Self += s.Busy - child[s.ID]
	}
	if l.ops < keepOps {
		l.kept = append(l.kept, op...)
	}
	l.idOff += int64(len(op))
	l.spans = l.spans[:0]
	l.ops++
}

// table merges the lanes' per-name rows.
func (t *tracer) table() map[string]aggRow {
	out := map[string]aggRow{}
	for _, l := range t.lanes {
		for name, r := range l.agg {
			o := out[name]
			o.Spans += r.Spans
			o.Calls += r.Calls
			o.Busy += r.Busy
			o.Self += r.Self
			out[name] = o
		}
	}
	return out
}

// traceFile is the shape of out/trace-<workload>.json.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Note     string            `json:"note"`
	Layers   map[string]aggRow `json:"layers"`
	// Estimates are shares of an operation that could not be wrapped
	// (the layer sits behind a concrete type): exported count × isolated
	// cost from the ladder ÷ the operation's measured time.
	Estimates map[string]float64 `json:"estimated_shares,omitempty"`
	Spans     []span             `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64, estimates map[string]float64) error {
	tf := traceFile{
		Workload: workload, Seed: seed,
		Note:      fmt.Sprintf("spans of the first %d operations per load goroutine; layers cover every traced operation; busy_ns of aggregate spans is sampled 1/%d", keepOps, sampleEvery),
		Layers:    t.table(),
		Estimates: estimates,
	}
	for _, l := range t.lanes {
		tf.Spans = append(tf.Spans, l.kept...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable renders the per-layer table: busy time, self time, counts.
func (t *tracer) printTable(w io.Writer, estimates map[string]float64) {
	tab := t.table()
	names := make([]string, 0, len(tab))
	for n := range tab {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  span\tspans\tcalls\tbusy ms\tself ms")
	for _, n := range names {
		r := tab[n]
		fmt.Fprintf(tw, "  %s\t%d\t%d\t%.3f\t%.3f", n, r.Spans, r.Calls, float64(r.Busy)/1e6, float64(r.Self)/1e6)
		if float64(r.Self) < -0.05*float64(r.Busy) {
			fmt.Fprint(tw, "\tchildren exceed the span by more than 5 %")
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	if len(estimates) > 0 {
		names = names[:0]
		for n := range estimates {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "  estimated shares of the lead op (count × isolated cost, not wrapped):")
		for _, n := range names {
			fmt.Fprintf(w, "    %-28s %.3f\n", n, estimates[n])
		}
	}
}

// --- join source decorators -------------------------------------------------

// cheapCalls accumulates calls too cheap to time individually.
type cheapCalls struct {
	calls, timed, sampled, first, last int64
}

// begin counts one call and reports whether this one is timed.
func (c *cheapCalls) begin(l *lane) (start int64, timed bool) {
	c.calls++
	if c.calls%sampleEvery != 1 {
		return 0, false
	}
	c.timed++
	start = l.now()
	if c.first == 0 {
		c.first = start
	}
	return start, true
}

func (c *cheapCalls) finish(l *lane, start int64) {
	c.last = l.now()
	c.sampled += c.last - start
}

func (c *cheapCalls) flush(l *lane, name string) {
	if c.timed > 0 {
		busy := max(0, c.sampled-c.timed*l.tr.clock)
		l.aggregate(name, c.first, c.last, busy*c.calls/c.timed, c.calls)
	}
	*c = cheapCalls{}
}

// tracedIter times an iterator's Next/Peek as one aggregate span, flushed
// when the join closes it.
type tracedIter struct {
	it   join.Iterator
	l    *lane
	name string
	cc   cheapCalls
}

func (t *tracedIter) Next() (xmldoc.Element, bool) {
	start, timed := t.cc.begin(t.l)
	e, ok := t.it.Next()
	if timed {
		t.cc.finish(t.l, start)
	}
	return e, ok
}

func (t *tracedIter) Peek() (xmldoc.Element, bool) {
	start, timed := t.cc.begin(t.l)
	e, ok := t.it.Peek()
	if timed {
		t.cc.finish(t.l, start)
	}
	return e, ok
}

func (t *tracedIter) Err() error { return t.it.Err() }

func (t *tracedIter) Close() error {
	t.cc.flush(t.l, t.name+".iter")
	return t.it.Close()
}

// tracedSource decorates a join source: Scan, SeekGE and AppendAncestors
// become child spans of the running join; the iterators they return are
// decorated in turn. It implements join.Source, join.Seeker,
// join.AncestorSeeker and join.PrefetchSeeker, forwarding what the wrapped
// source supports.
type tracedSource struct {
	src  join.Source
	l    *lane
	name string // layer prefix: "core", "btree" or "elemlist"
}

func (s tracedSource) Len() int { return s.src.Len() }

func (s tracedSource) Scan(c *metrics.Counters) (join.Iterator, error) {
	id := s.l.begin(s.name + ".scan")
	it, err := s.src.Scan(c)
	s.l.end(id)
	if err != nil {
		return nil, err
	}
	return &tracedIter{it: it, l: s.l, name: s.name}, nil
}

func (s tracedSource) SeekGE(key uint32, c *metrics.Counters) (join.Iterator, error) {
	id := s.l.begin(s.name + ".seek")
	it, err := s.src.(join.Seeker).SeekGE(key, c)
	s.l.end(id)
	if err != nil {
		return nil, err
	}
	return &tracedIter{it: it, l: s.l, name: s.name}, nil
}

func (s tracedSource) AppendAncestors(dst []xmldoc.Element, sd, minStart uint32, c *metrics.Counters) ([]xmldoc.Element, error) {
	id := s.l.begin(s.name + ".ancestors")
	out, err := s.src.(join.AncestorSeeker).AppendAncestors(dst, sd, minStart, c)
	s.l.end(id)
	return out, err
}

func (s tracedSource) PrefetchGE(key uint32, c *metrics.Counters) {
	if p, ok := s.src.(join.PrefetchSeeker); ok {
		p.PrefetchGE(key, c)
	}
}

// tracedEmit wraps the benchmark's emit callback as an aggregate child.
func tracedEmit(l *lane, emit join.EmitFunc) (join.EmitFunc, func()) {
	var cc cheapCalls
	wrapped := func(a, d xmldoc.Element) {
		start, timed := cc.begin(l)
		emit(a, d)
		if timed {
			cc.finish(l, start)
		}
	}
	return wrapped, func() { cc.flush(l, "bench.emit") }
}
