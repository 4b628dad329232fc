package cluster

// Router-side cluster metrics: per-shard sub-request accounting plus the
// request-level degraded counter, exported on the existing /metrics
// exposition as the xr_cluster_* families and as the /api/v1/cluster
// status document xrblast scrapes for the cluster section of its report.

import (
	"sync/atomic"
	"time"

	"xrtree"
	"xrtree/internal/obs"
)

// ShardMetrics accumulates one shard's router-observed accounting.
type ShardMetrics struct {
	up       atomic.Bool
	subs     atomic.Int64  // sub-request attempts (including hedges/retries)
	failures atomic.Int64  // attempts that did not return 200
	hedges   atomic.Int64  // hedged attempts fired after the delay
	retries  atomic.Int64  // failover attempts after a retriable error
	lat      obs.Histogram // successful-attempt latency, ns
}

// Metrics is the router's cluster accounting, fixed at construction to the
// config's shard set. All methods are safe for concurrent use.
type Metrics struct {
	col      *obs.Collector // EvCluster* event kinds
	degraded atomic.Int64   // requests answered with shards_failed
	order    []string
	perShard map[string]*ShardMetrics
}

// NewMetrics creates the accounting for the config's shards (all up).
func NewMetrics(cfg *Config) *Metrics {
	m := &Metrics{col: obs.NewCollector(), perShard: make(map[string]*ShardMetrics, len(cfg.Shards))}
	for _, s := range cfg.Shards {
		sm := &ShardMetrics{}
		sm.up.Store(true)
		m.perShard[s.Name] = sm
		m.order = append(m.order, s.Name)
	}
	return m
}

// Collector exposes the cluster event collector (EvCluster* kinds).
func (m *Metrics) Collector() *obs.Collector { return m.col }

// SetUp records a shard state transition (driven by the prober).
func (m *Metrics) SetUp(name string, up bool) {
	if sm := m.perShard[name]; sm != nil {
		sm.up.Store(up)
	}
}

// Attempt records one sub-request attempt's outcome; successful attempts
// feed the latency histogram the hedge delay derives its p99 from.
func (m *Metrics) Attempt(name string, d time.Duration, ok bool) {
	sm := m.perShard[name]
	if sm == nil {
		return
	}
	sm.subs.Add(1)
	if ok {
		sm.lat.Observe(d.Nanoseconds())
		m.col.Event(obs.EvClusterSub, d.Nanoseconds())
	} else {
		sm.failures.Add(1)
	}
}

// Hedge records one hedged attempt against the shard.
func (m *Metrics) Hedge(name string) {
	if sm := m.perShard[name]; sm != nil {
		sm.hedges.Add(1)
	}
	m.col.Event(obs.EvClusterHedge, 1)
}

// Retry records one failover retry against the shard.
func (m *Metrics) Retry(name string) {
	if sm := m.perShard[name]; sm != nil {
		sm.retries.Add(1)
	}
	m.col.Event(obs.EvClusterRetry, 1)
}

// Degraded records one request answered with a non-empty shards_failed.
func (m *Metrics) Degraded(shardsFailed int) {
	m.degraded.Add(1)
	m.col.Event(obs.EvClusterDegraded, int64(shardsFailed))
}

// p99 returns the shard's successful sub-request p99 in nanoseconds and
// the sample count it rests on.
func (m *Metrics) p99(name string) (ns int64, samples int64) {
	sm := m.perShard[name]
	if sm == nil {
		return 0, 0
	}
	return sm.lat.Quantile(0.99), sm.lat.Count()
}

// ShardStatus is one shard's entry in the /api/v1/cluster document.
type ShardStatus struct {
	Name        string                `json:"name"`
	Addr        string                `json:"addr"`
	Replica     string                `json:"replica,omitempty"`
	Up          bool                  `json:"up"`
	Docs        int                   `json:"docs"`
	Subrequests int64                 `json:"subrequests"`
	Failures    int64                 `json:"failures"`
	Hedges      int64                 `json:"hedges"`
	Retries     int64                 `json:"retries"`
	Latency     xrtree.LatencySummary `json:"latency"`
}

// Status is the body of /api/v1/cluster: the router's live view of the
// fleet, scraped by xrblast for the cluster section of its report.
type Status struct {
	Shards   []ShardStatus `json:"shards"`
	Docs     int           `json:"docs"`
	Degraded int64         `json:"degraded"`
}

// WriteProm renders the xr_cluster_* families onto the shared Prometheus
// writer: the per-shard up gauge, attempt/failure/hedge/retry counters,
// the sub-request latency histograms, and the degraded-response counter.
func (m *Metrics) WriteProm(p *obs.PromWriter) {
	label := func(name string) obs.PromLabel { return obs.PromLabel{Name: "shard", Value: name} }
	for _, name := range m.order {
		up := 0.0
		if m.perShard[name].up.Load() {
			up = 1.0
		}
		p.Gauge("xr_cluster_shard_up", "Shard health as seen by the router (1 up, 0 down).", up, label(name))
	}
	for _, name := range m.order {
		p.Counter("xr_cluster_subrequests_total", "Router-to-shard sub-request attempts, including hedges and retries.",
			float64(m.perShard[name].subs.Load()), label(name))
	}
	for _, name := range m.order {
		p.Counter("xr_cluster_subrequest_failures_total", "Sub-request attempts that did not return 200.",
			float64(m.perShard[name].failures.Load()), label(name))
	}
	for _, name := range m.order {
		p.Counter("xr_cluster_hedges_total", "Hedged sub-requests fired after the p99-derived delay.",
			float64(m.perShard[name].hedges.Load()), label(name))
	}
	for _, name := range m.order {
		p.Counter("xr_cluster_retries_total", "Failover retries after retriable sub-request errors.",
			float64(m.perShard[name].retries.Load()), label(name))
	}
	for _, name := range m.order {
		p.Histogram("xr_cluster_subrequest_latency", "Successful sub-request latency per shard, ns.",
			m.perShard[name].lat.Snapshot(), label(name))
	}
	p.Counter("xr_cluster_degraded_total", "Requests answered degraded (non-empty shards_failed).",
		float64(m.degraded.Load()))
}
