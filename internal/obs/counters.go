package obs

import "sync/atomic"

// Counters is the concurrency-safe twin of metrics.Counters: the same cost
// accounts, each an atomic. It is the right representation wherever one
// counter set is mutated from several goroutines — the buffer pool's
// always-on statistics are the canonical user. Single-goroutine code keeps
// using the plain metrics.Counters.
//
// The zero value is ready to use.
type Counters struct {
	ElementsScanned atomic.Int64
	OutputPairs     atomic.Int64
	IndexNodeReads  atomic.Int64
	LeafReads       atomic.Int64
	StabPageReads   atomic.Int64
	BufferHits      atomic.Int64
	BufferMisses    atomic.Int64
	PhysicalReads   atomic.Int64
	PhysicalWrites  atomic.Int64
	PageEvictions   atomic.Int64

	// ReadCalls counts read syscalls issued by the storage manager. With
	// coalesced vectored reads one call can fetch several physically
	// adjacent pages, so PhysicalReads / ReadCalls ≥ 1 is the coalescing
	// ratio.
	ReadCalls atomic.Int64
}

// CountersSnapshot is a plain-data copy of a Counters at one instant,
// suitable for JSON export and for conversion to metrics.Counters
// (metrics.FromSnapshot).
type CountersSnapshot struct {
	ElementsScanned int64 `json:"elements_scanned"`
	OutputPairs     int64 `json:"output_pairs"`
	IndexNodeReads  int64 `json:"index_node_reads"`
	LeafReads       int64 `json:"leaf_reads"`
	StabPageReads   int64 `json:"stab_page_reads"`
	BufferHits      int64 `json:"buffer_hits"`
	BufferMisses    int64 `json:"buffer_misses"`
	PhysicalReads   int64 `json:"physical_reads"`
	PhysicalWrites  int64 `json:"physical_writes"`
	PageEvictions   int64 `json:"page_evictions"`
	ReadCalls       int64 `json:"read_calls,omitempty"`
}

// Snapshot returns a point-in-time copy of the counters. Under concurrent
// mutation the fields are individually (not jointly) consistent, which is
// all the audit invariants need.
func (c *Counters) Snapshot() CountersSnapshot {
	return CountersSnapshot{
		ElementsScanned: c.ElementsScanned.Load(),
		OutputPairs:     c.OutputPairs.Load(),
		IndexNodeReads:  c.IndexNodeReads.Load(),
		LeafReads:       c.LeafReads.Load(),
		StabPageReads:   c.StabPageReads.Load(),
		BufferHits:      c.BufferHits.Load(),
		BufferMisses:    c.BufferMisses.Load(),
		PhysicalReads:   c.PhysicalReads.Load(),
		PhysicalWrites:  c.PhysicalWrites.Load(),
		PageEvictions:   c.PageEvictions.Load(),
		ReadCalls:       c.ReadCalls.Load(),
	}
}

// Reset zeroes all counters (not atomically as a set).
func (c *Counters) Reset() {
	c.ElementsScanned.Store(0)
	c.OutputPairs.Store(0)
	c.IndexNodeReads.Store(0)
	c.LeafReads.Store(0)
	c.StabPageReads.Store(0)
	c.BufferHits.Store(0)
	c.BufferMisses.Store(0)
	c.PhysicalReads.Store(0)
	c.PhysicalWrites.Store(0)
	c.PageEvictions.Store(0)
	c.ReadCalls.Store(0)
}

// Sub returns the per-field difference s − old, for before/after deltas.
func (s CountersSnapshot) Sub(old CountersSnapshot) CountersSnapshot {
	return CountersSnapshot{
		ElementsScanned: s.ElementsScanned - old.ElementsScanned,
		OutputPairs:     s.OutputPairs - old.OutputPairs,
		IndexNodeReads:  s.IndexNodeReads - old.IndexNodeReads,
		LeafReads:       s.LeafReads - old.LeafReads,
		StabPageReads:   s.StabPageReads - old.StabPageReads,
		BufferHits:      s.BufferHits - old.BufferHits,
		BufferMisses:    s.BufferMisses - old.BufferMisses,
		PhysicalReads:   s.PhysicalReads - old.PhysicalReads,
		PhysicalWrites:  s.PhysicalWrites - old.PhysicalWrites,
		PageEvictions:   s.PageEvictions - old.PageEvictions,
		ReadCalls:       s.ReadCalls - old.ReadCalls,
	}
}
