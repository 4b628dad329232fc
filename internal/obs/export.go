package obs

import (
	"fmt"
	"io"
	"sort"
)

// EventSnapshot is the exported state of one event kind.
type EventSnapshot struct {
	Count int64             `json:"count"`
	Sum   int64             `json:"sum"`
	Hist  HistogramSnapshot `json:"hist"`
}

// Snapshot is a point-in-time export of a Collector: every event kind that
// fired, keyed by its canonical name. It marshals directly to the JSON
// shape used by BENCH_*.json and the --stats-json flags.
type Snapshot struct {
	Events map[string]EventSnapshot `json:"events"`
}

// Snapshot exports the collector's current state. Only kinds with at least
// one event appear.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{Events: make(map[string]EventSnapshot)}
	for k := EventKind(0); k < NumEvents; k++ {
		if n := c.counts[k].Load(); n > 0 {
			s.Events[k.String()] = EventSnapshot{
				Count: n,
				Sum:   c.hists[k].Sum(),
				Hist:  c.hists[k].Snapshot(),
			}
		}
	}
	return s
}

// WriteText renders the snapshot for humans: one line per event kind, in
// stable (alphabetical) order, with count, value sum, mean and tail bounds.
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Events))
	for name := range s.Events {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ev := s.Events[name]
		mean := 0.0
		if ev.Count > 0 {
			mean = float64(ev.Sum) / float64(ev.Count)
		}
		if _, err := fmt.Fprintf(w, "%-13s count=%-9d sum=%-12d mean=%.1f p50≤%d p99≤%d\n",
			name, ev.Count, ev.Sum, mean, ev.Hist.quantile(0.50), ev.Hist.quantile(0.99)); err != nil {
			return err
		}
	}
	return nil
}

// quantile is Histogram.Quantile over an already-materialized snapshot.
func (h HistogramSnapshot) quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	target := int64(q*float64(h.Count) + 0.5)
	if target < 1 {
		target = 1
	}
	var cum int64
	for _, b := range h.Buckets {
		cum += b.N
		if cum >= target {
			return b.Le
		}
	}
	if n := len(h.Buckets); n > 0 {
		return h.Buckets[n-1].Le
	}
	return 0
}

// Quantile returns an upper bound for the q-quantile of the snapshot.
func (h HistogramSnapshot) Quantile(q float64) int64 { return h.quantile(q) }
