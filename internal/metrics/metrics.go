// Package metrics provides the counters used throughout the XR-tree
// reproduction to account for work the way the paper does: elements
// scanned (Tables 2 and 3), buffer-pool page misses (the dominant term of
// the elapsed-time figures), and physical I/Os.
//
// A Counters value is plain data; it is not safe for concurrent mutation.
// Every index and join algorithm takes an optional *Counters and increments
// it as it works, so a single experiment run can be audited end to end.
package metrics

import (
	"context"
	"fmt"
	"strings"
	"time"

	"xrtree/internal/obs"
)

// Counters accumulates the cost metrics of one operation or experiment run.
type Counters struct {
	// ElementsScanned counts every element entry examined in a leaf page,
	// stab list, or sequential list. This is the metric of Tables 2 and 3.
	ElementsScanned int64

	// OutputPairs counts result pairs emitted by a join.
	OutputPairs int64

	// IndexNodeReads counts internal index node visits (B+-tree or XR-tree).
	IndexNodeReads int64

	// LeafReads counts leaf page visits.
	LeafReads int64

	// StabPageReads counts stab-list page visits (XR-tree only).
	StabPageReads int64

	// BufferHits and BufferMisses count buffer-pool lookups. Misses require
	// a physical page read and dominate elapsed time in the paper's setup.
	BufferHits   int64
	BufferMisses int64

	// PhysicalReads and PhysicalWrites count pages moved to/from the
	// backing file by the storage manager.
	PhysicalReads  int64
	PhysicalWrites int64

	// PageEvictions counts buffer-pool frames evicted to admit new pages.
	PageEvictions int64

	// ReadCalls counts read syscalls issued by the storage manager; with
	// coalesced vectored reads one call can cover several adjacent pages,
	// so PhysicalReads/ReadCalls is the coalescing ratio.
	ReadCalls int64

	// FingerHits counts join steps (finger seeks and ancestor probes) that
	// an index iterator answered from the leaf it already holds, without a
	// root-to-leaf descent; FingerMisses counts the finger steps that fell
	// back to one. Joins over iterators without a finger count neither.
	FingerHits   int64
	FingerMisses int64

	// Elapsed is wall-clock time, set by Timer or by the caller.
	Elapsed time.Duration

	// Tracer, when non-nil, receives structured events from every layer
	// the counters pass through (see internal/obs). It rides inside the
	// counter set so enabling a trace never changes a call signature; it
	// is carried, not accumulated — Add ignores it and Reset preserves it.
	Tracer obs.Tracer

	// Ctx, when non-nil, makes the operation cancelable: index iterators
	// poll it at page boundaries and the join loops poll it on a stride,
	// so a canceled or timed-out query stops consuming buffer-pool and CPU
	// resources without per-element overhead. Like Tracer it is carried,
	// not accumulated — Add ignores it and Reset preserves it.
	Ctx context.Context
}

// Interrupted returns the cancellation error of the attached context
// (context.Canceled or context.DeadlineExceeded), or nil when no context
// is attached or it is still live. Safe on a nil receiver — the disabled
// fast path is two nil checks.
func (c *Counters) Interrupted() error {
	if c == nil || c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// Emit sends one event to the attached tracer. Safe on a nil receiver and
// a nil tracer — the disabled fast path costs two nil checks and does not
// allocate (TestNilTracerEmitZeroAllocs).
func (c *Counters) Emit(kind obs.EventKind, value int64) {
	if c == nil || c.Tracer == nil {
		return
	}
	c.Tracer.Event(kind, value)
}

// TraceSink returns the attached tracer, nil-safe. It is the argument
// form the page-fetch paths pass down to the storage manager so physical
// reads are attributed to the requesting operation's span (or collector)
// rather than to the store-global tracer. The disabled fast path is one
// nil check and does not allocate.
func (c *Counters) TraceSink() obs.Tracer {
	if c == nil {
		return nil
	}
	return c.Tracer
}

// StartSpan opens a child span named name when the attached tracer can
// carry one (see obs.SpanTracer), returning nil otherwise. A nil result
// is safe to use — *Span methods are nil-safe — so callers need no
// branch beyond `defer sp.End()`. The disabled fast path is two nil
// checks plus a failed type assertion; it does not allocate.
func (c *Counters) StartSpan(name string) *obs.Span {
	if c == nil || c.Tracer == nil {
		return nil
	}
	if st, ok := c.Tracer.(obs.SpanTracer); ok {
		return st.StartSpan(name)
	}
	return nil
}

// FromSnapshot converts an atomic-counter snapshot (internal/obs) into the
// plain counter form, the view the pre-existing Stats APIs return.
func FromSnapshot(s obs.CountersSnapshot) Counters {
	return Counters{
		ElementsScanned: s.ElementsScanned,
		OutputPairs:     s.OutputPairs,
		IndexNodeReads:  s.IndexNodeReads,
		LeafReads:       s.LeafReads,
		StabPageReads:   s.StabPageReads,
		BufferHits:      s.BufferHits,
		BufferMisses:    s.BufferMisses,
		PhysicalReads:   s.PhysicalReads,
		PhysicalWrites:  s.PhysicalWrites,
		PageEvictions:   s.PageEvictions,
		ReadCalls:       s.ReadCalls,
	}
}

// Add accumulates other into c.
func (c *Counters) Add(other *Counters) {
	if other == nil {
		return
	}
	c.ElementsScanned += other.ElementsScanned
	c.OutputPairs += other.OutputPairs
	c.IndexNodeReads += other.IndexNodeReads
	c.LeafReads += other.LeafReads
	c.StabPageReads += other.StabPageReads
	c.BufferHits += other.BufferHits
	c.BufferMisses += other.BufferMisses
	c.PhysicalReads += other.PhysicalReads
	c.PhysicalWrites += other.PhysicalWrites
	c.PageEvictions += other.PageEvictions
	c.ReadCalls += other.ReadCalls
	c.FingerHits += other.FingerHits
	c.FingerMisses += other.FingerMisses
	c.Elapsed += other.Elapsed
}

// CountFinger records one finger step as a hit (answered from the held
// leaf) or a miss (fell back to a descent). Safe on a nil receiver.
func (c *Counters) CountFinger(hit bool) {
	if c == nil {
		return
	}
	if hit {
		c.FingerHits++
	} else {
		c.FingerMisses++
	}
}

// FingerHitShare is FingerHits over all finger steps, 0 when there were
// none.
func (c *Counters) FingerHitShare() float64 {
	if n := c.FingerHits + c.FingerMisses; n > 0 {
		return float64(c.FingerHits) / float64(n)
	}
	return 0
}

// Reset zeroes all counters, preserving the attached Tracer and Ctx.
func (c *Counters) Reset() {
	tr, ctx := c.Tracer, c.Ctx
	*c = Counters{}
	c.Tracer = tr
	c.Ctx = ctx
}

// PageAccesses returns the total logical page accesses (hits + misses).
func (c *Counters) PageAccesses() int64 { return c.BufferHits + c.BufferMisses }

// CostModel converts counted events into a derived time, mirroring the
// paper's observation that elapsed time is dominated by page misses.
type CostModel struct {
	// PerMiss is the charged cost of one buffer miss (one random page read).
	PerMiss time.Duration
	// PerScan is the charged CPU cost of examining one element entry.
	PerScan time.Duration
}

// DefaultCostModel approximates a early-2000s disk (8 ms per random page
// read) and a fast in-memory comparison per scanned element. Only the
// *ratios* matter for reproducing the figures' shape.
var DefaultCostModel = CostModel{PerMiss: 8 * time.Millisecond, PerScan: 100 * time.Nanosecond}

// DerivedTime returns the modeled elapsed time for the counters under m.
func (m CostModel) DerivedTime(c *Counters) time.Duration {
	return time.Duration(c.BufferMisses)*m.PerMiss + time.Duration(c.ElementsScanned)*m.PerScan
}

// String renders the counters in a compact single-line form.
func (c *Counters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scanned=%d pairs=%d idx=%d leaf=%d stab=%d hits=%d misses=%d pr=%d pw=%d",
		c.ElementsScanned, c.OutputPairs, c.IndexNodeReads, c.LeafReads, c.StabPageReads,
		c.BufferHits, c.BufferMisses, c.PhysicalReads, c.PhysicalWrites)
	if c.PageEvictions > 0 {
		fmt.Fprintf(&b, " evict=%d", c.PageEvictions)
	}
	if c.Elapsed > 0 {
		fmt.Fprintf(&b, " elapsed=%s", c.Elapsed)
	}
	return b.String()
}

// Timer measures wall-clock time into a Counters.
type Timer struct {
	c     *Counters
	start time.Time
}

// StartTimer begins timing into c. Stop must be called to record.
func StartTimer(c *Counters) *Timer {
	return &Timer{c: c, start: time.Now()}
}

// Stop records the elapsed time since StartTimer into the counters.
func (t *Timer) Stop() {
	if t.c != nil {
		t.c.Elapsed += time.Since(t.start)
	}
}
