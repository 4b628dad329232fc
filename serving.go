package xrtree

// LatencySummary digests a latency distribution in milliseconds. The
// serving endpoints (/api/v1/stats of xrserve, /api/v1/cluster of a
// router) and the xrblast load generator report quantiles from the
// power-of-two histogram of internal/obs — upper bounds, coarse but stable
// across runs.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms,omitempty"`
}
