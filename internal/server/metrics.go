package server

import (
	"sync/atomic"
	"time"

	"xrtree"
	"xrtree/internal/obs"
)

// Metrics aggregates the serving layer's request accounting: outcome
// counters (atomic, one per terminal state) plus an obs.Collector holding
// the latency, queue-wait and queue-depth distributions under the
// EvServe* event kinds. All methods are safe for concurrent use.
type Metrics struct {
	col *obs.Collector

	requests atomic.Int64 // arrivals, before admission
	ok       atomic.Int64 // completed with a 2xx response
	rejected atomic.Int64 // 429: queue full at admission
	timeouts atomic.Int64 // deadline exceeded, queued or mid-query
	canceled atomic.Int64 // client went away before completion
	failed   atomic.Int64 // bad request or internal error
}

// NewMetrics creates an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{col: obs.NewCollector()}
}

// Arrived records one request arrival and samples the queue depth it saw.
func (m *Metrics) Arrived(queueDepth int) {
	m.requests.Add(1)
	m.QueueDepth(queueDepth)
}

// QueueDepth samples the admission queue depth into the depth
// distribution. The serving layer calls it at admission and again at
// completion, so the distribution reflects draining as well as filling.
func (m *Metrics) QueueDepth(depth int) {
	m.col.Event(obs.EvServeQueueDepth, int64(depth))
}

// Rejected records one 429 (queue full at admission).
func (m *Metrics) Rejected() {
	m.rejected.Add(1)
	m.col.Event(obs.EvServeReject, 1)
}

// TimedOut records one request that hit its deadline, queued or mid-query.
func (m *Metrics) TimedOut() {
	m.timeouts.Add(1)
	m.col.Event(obs.EvServeTimeout, 1)
}

// Canceled records one request whose client went away before completion.
func (m *Metrics) Canceled() { m.canceled.Add(1) }

// Failed records one request that ended in a 4xx/5xx other than
// rejection or timeout.
func (m *Metrics) Failed() { m.failed.Add(1) }

// Done records one admitted request's completion: queue wait and total
// admission-to-response latency. ok distinguishes 2xx from error
// responses (errors are also counted by TimedOut/Failed — Done only owns
// the distributions and the ok counter).
func (m *Metrics) Done(ok bool, queueWait, total time.Duration) {
	if ok {
		m.ok.Add(1)
	}
	m.col.Event(obs.EvServeQueueWait, queueWait.Nanoseconds())
	m.col.Event(obs.EvServeSpan, total.Nanoseconds())
}

// summarize digests one nanosecond-valued event kind into milliseconds
// (quantiles are upper bounds from the power-of-two buckets — coarse but
// cheap and lock-free).
func (m *Metrics) summarize(kind obs.EventKind) xrtree.LatencySummary {
	h := m.col.Histogram(kind)
	if h == nil || h.Count() == 0 {
		return xrtree.LatencySummary{}
	}
	const msPerNs = 1e-6
	return xrtree.LatencySummary{
		Count:  h.Count(),
		MeanMS: h.Mean() * msPerNs,
		P50MS:  float64(h.Quantile(0.50)) * msPerNs,
		P90MS:  float64(h.Quantile(0.90)) * msPerNs,
		P99MS:  float64(h.Quantile(0.99)) * msPerNs,
		MaxMS:  float64(h.Quantile(1)) * msPerNs,
	}
}

// MetricsSnapshot is the JSON shape of /api/v1/stats' server section:
// outcome counts, live gauges, latency digests, and the raw
// event snapshot for anything not pre-digested.
type MetricsSnapshot struct {
	Requests int64 `json:"requests"`
	OK       int64 `json:"ok"`
	Rejected int64 `json:"rejected"`
	Timeouts int64 `json:"timeouts"`
	Canceled int64 `json:"canceled"`
	Failed   int64 `json:"failed"`
	InFlight int   `json:"in_flight"`
	Queued   int   `json:"queued"`
	// QueueDepth is the live admission-queue depth at snapshot time (the
	// current-value gauge; the ServeQueueDepth event histogram holds the
	// sampled distribution).
	QueueDepth int                   `json:"queue_depth"`
	Latency    xrtree.LatencySummary `json:"latency"`
	QueueWait  xrtree.LatencySummary `json:"queue_wait"`
	Events     obs.Snapshot          `json:"events"`
}

// Snapshot exports the current state; inFlight and queued are sampled
// from the limiter by the caller.
func (m *Metrics) Snapshot(inFlight, queued int) MetricsSnapshot {
	return MetricsSnapshot{
		Requests:   m.requests.Load(),
		OK:         m.ok.Load(),
		Rejected:   m.rejected.Load(),
		Timeouts:   m.timeouts.Load(),
		Canceled:   m.canceled.Load(),
		Failed:     m.failed.Load(),
		InFlight:   inFlight,
		Queued:     queued,
		QueueDepth: queued,
		Latency:    m.summarize(obs.EvServeSpan),
		QueueWait:  m.summarize(obs.EvServeQueueWait),
		Events:     m.col.Snapshot(),
	}
}

// writeProm renders the serving metrics in Prometheus text form: outcome
// counters, the live limiter gauges, and every collector event kind as a
// labeled histogram family.
func (m *Metrics) writeProm(p *obs.PromWriter, inFlight, queued int) {
	p.Counter("xrtree_serve_requests_total", "Request arrivals, before admission.", float64(m.requests.Load()))
	p.Counter("xrtree_serve_ok_total", "Requests completed with a 2xx response.", float64(m.ok.Load()))
	p.Counter("xrtree_serve_rejected_total", "Requests rejected 429 at admission.", float64(m.rejected.Load()))
	p.Counter("xrtree_serve_timeouts_total", "Requests that exceeded their deadline.", float64(m.timeouts.Load()))
	p.Counter("xrtree_serve_canceled_total", "Requests whose client went away.", float64(m.canceled.Load()))
	p.Counter("xrtree_serve_failed_total", "Requests failed with another 4xx/5xx.", float64(m.failed.Load()))
	p.Gauge("xrtree_serve_in_flight", "Requests currently executing.", float64(inFlight))
	p.Gauge("xrtree_serve_queue_depth", "Requests currently waiting for admission.", float64(queued))
	p.CollectorEvents("xrtree", m.col)
}
