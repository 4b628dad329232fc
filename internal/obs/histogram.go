package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the number of fixed histogram buckets. Bucket 0 holds the
// value 0; bucket b ≥ 1 holds values in [2^(b-1), 2^b). 48 buckets cover
// every value the system produces (2^47 ns ≈ 39 hours; larger values clamp
// into the last bucket).
const NumBuckets = 48

// Histogram is a fixed-bucket power-of-two histogram. Observe is lock-free
// and safe for concurrent use; the zero value is ready to use.
//
// Power-of-two buckets trade resolution for a zero-configuration layout
// that is identical across every quantity we measure (nanoseconds, list
// lengths, skip distances), which keeps the exporters and the JSON schema
// uniform.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// bucketOf returns the bucket index for v. Negative values count as 0.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // v in [2^(b-1), 2^b)
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket b (the "le" of
// the exported form): 0 for bucket 0, 2^b − 1 otherwise.
func BucketUpper(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1)<<b - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the mean observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound for the q-quantile (q in [0, 1]): the
// inclusive upper edge of the bucket containing it. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q*float64(n) + 0.5)
	if target < 1 {
		target = 1
	}
	var cum int64
	for b := 0; b < NumBuckets; b++ {
		cum += h.buckets[b].Load()
		if cum >= target {
			return BucketUpper(b)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// Reset zeroes the histogram (not atomically as a set).
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// LatencySummary digests a nanosecond-valued histogram in milliseconds.
// Its quantiles are upper bounds from the power-of-two buckets: coarse,
// but stable across runs. The serving endpoints (/api/v1/stats of
// xrserve, /api/v1/cluster of a router) and the xrblast load generator
// report it.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms,omitempty"`
}

// Summary digests the histogram, whose values are nanoseconds, into a
// LatencySummary: the zero value when h is nil or empty.
func (h *Histogram) Summary() LatencySummary {
	if h == nil || h.Count() == 0 {
		return LatencySummary{}
	}
	const msPerNs = 1e-6
	return LatencySummary{
		Count:  h.Count(),
		MeanMS: h.Mean() * msPerNs,
		P50MS:  float64(h.Quantile(0.50)) * msPerNs,
		P90MS:  float64(h.Quantile(0.90)) * msPerNs,
		P99MS:  float64(h.Quantile(0.99)) * msPerNs,
		MaxMS:  float64(h.Quantile(1)) * msPerNs,
	}
}

// Bucket is one non-empty bucket of a histogram snapshot: N observations
// with value ≤ Le (and greater than the previous bucket's Le).
type Bucket struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// HistogramSnapshot is a point-in-time copy of a histogram, with only the
// non-empty buckets materialized.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for b := 0; b < NumBuckets; b++ {
		if n := h.buckets[b].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: BucketUpper(b), N: n})
		}
	}
	return s
}

// String renders the snapshot compactly: count, mean, and p50/p99 bounds.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50≤%d p99≤%d",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
}
