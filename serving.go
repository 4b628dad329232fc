package xrtree

import "xrtree/internal/obs"

// LatencySummary digests a latency distribution in milliseconds. The
// serving endpoints (/api/v1/stats of xrserve, /api/v1/cluster of a
// router) and the xrblast load generator report quantiles from the
// power-of-two histogram of internal/obs — upper bounds, coarse but stable
// across runs.
type LatencySummary = obs.LatencySummary
