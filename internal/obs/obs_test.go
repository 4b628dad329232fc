package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 20, 21}, {1<<62 + 1, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Bucket edges: BucketUpper(b) is the largest value mapping to b.
	for b := 1; b < 40; b++ {
		if got := bucketOf(BucketUpper(b)); got != b {
			t.Errorf("bucketOf(BucketUpper(%d)) = %d", b, got)
		}
		if got := bucketOf(BucketUpper(b) + 1); got != b+1 {
			t.Errorf("bucketOf(BucketUpper(%d)+1) = %d, want %d", b, got, b+1)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 1, 2, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 107 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if m := h.Mean(); m != 107.0/5 {
		t.Errorf("mean = %v", m)
	}
	// p50 of {1,1,2,3,100}: 3rd smallest is 2, bucket [2,3] → upper 3.
	if q := h.Quantile(0.5); q != 3 {
		t.Errorf("p50 = %d, want 3", q)
	}
	// p100 lands in 100's bucket [64,127].
	if q := h.Quantile(1.0); q != 127 {
		t.Errorf("p100 = %d, want 127", q)
	}
	snap := h.Snapshot()
	var total int64
	for _, b := range snap.Buckets {
		total += b.N
	}
	if total != 5 {
		t.Errorf("snapshot buckets sum to %d", total)
	}
	if snap.Quantile(0.5) != 3 {
		t.Errorf("snapshot p50 = %d", snap.Quantile(0.5))
	}
	h.Reset()
	if h.Count() != 0 || len(h.Snapshot().Buckets) != 0 {
		t.Error("reset left observations")
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestCollectorAggregates(t *testing.T) {
	c := NewCollector()
	c.Event(EvSkipDesc, 10)
	c.Event(EvSkipDesc, 20)
	c.Event(EvOutput, 7)
	c.Event(NumEvents+3, 1) // unknown kind: dropped, no panic
	if c.Count(EvSkipDesc) != 2 || c.Value(EvSkipDesc) != 30 {
		t.Errorf("SkipDesc count=%d value=%d", c.Count(EvSkipDesc), c.Value(EvSkipDesc))
	}
	if c.Value(EvOutput) != 7 {
		t.Errorf("Output value = %d", c.Value(EvOutput))
	}
	if c.Count(NumEvents+3) != 0 || c.Histogram(NumEvents) != nil {
		t.Error("unknown kinds must read as empty")
	}
	snap := c.Snapshot()
	if len(snap.Events) != 2 {
		t.Fatalf("snapshot has %d events, want 2: %v", len(snap.Events), snap.Events)
	}
	if ev := snap.Events["SkipDesc"]; ev.Count != 2 || ev.Sum != 30 {
		t.Errorf("SkipDesc snapshot = %+v", ev)
	}
	c.Reset()
	if len(c.Snapshot().Events) != 0 {
		t.Error("reset left events")
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Event(EvPageRead, 1)
				c.Event(EvLeafScan, int64(i%64))
			}
		}()
	}
	wg.Wait()
	if got := c.Count(EvPageRead); got != workers*per {
		t.Errorf("PageRead count = %d, want %d", got, workers*per)
	}
	if got := c.Histogram(EvLeafScan).Count(); got != workers*per {
		t.Errorf("LeafScan observations = %d, want %d", got, workers*per)
	}
}

func TestJoinPhases(t *testing.T) {
	c := NewCollector()
	c.Event(EvAncProbe, 3)
	c.Event(EvAncProbe, 2)
	c.Event(EvSkipAnc, 100)
	c.Event(EvSkipDesc, 40)
	c.Event(EvSkipDesc, 60)
	c.Event(EvOutput, 5)
	ph := c.JoinPhases()
	if ph.AncProbes != 2 || ph.AncestorsFetched != 5 {
		t.Errorf("probes=%d fetched=%d", ph.AncProbes, ph.AncestorsFetched)
	}
	if ph.DescSkips != 2 || ph.DescSkipDistance != 100 {
		t.Errorf("descSkips=%d dist=%d", ph.DescSkips, ph.DescSkipDistance)
	}
	if ph.AncSkips != 1 || ph.AncSkipDistance != 100 || ph.OutputPairs != 5 {
		t.Errorf("phases = %+v", ph)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	c := NewCollector()
	c.Event(EvJoinSpan, 1234567)
	c.Event(EvStabScan, 4)
	b, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Events["StabScan"].Sum != 4 || back.Events["JoinSpan"].Count != 1 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestWriteText(t *testing.T) {
	c := NewCollector()
	c.Event(EvSkipDesc, 32)
	c.Event(EvOutput, 9)
	var b strings.Builder
	if err := c.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"SkipDesc", "Output", "count=1", "sum=32"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output %q missing %q", out, want)
		}
	}
	// Output precedes SkipDesc: alphabetical, so stable across runs.
	if strings.Index(out, "Output") > strings.Index(out, "SkipDesc") {
		t.Error("WriteText order not alphabetical")
	}
}

func TestSkippingEffectiveness(t *testing.T) {
	cases := []struct {
		scanned, total int64
		want           float64
	}{
		{0, 0, 0}, {50, 100, 0.5}, {0, 100, 1}, {200, 100, 0}, {100, 100, 0},
	}
	for _, c := range cases {
		if got := SkippingEffectiveness(c.scanned, c.total); got != c.want {
			t.Errorf("SkippingEffectiveness(%d, %d) = %v, want %v", c.scanned, c.total, got, c.want)
		}
	}
}

func TestEventKindString(t *testing.T) {
	if EvIndexDescend.String() != "IndexDescend" || EvJoinSpan.String() != "JoinSpan" {
		t.Error("event names wrong")
	}
	if (NumEvents + 1).String() != "Unknown" {
		t.Error("out-of-range kind should be Unknown")
	}
	for k := EventKind(0); k < NumEvents; k++ {
		if k.String() == "" {
			t.Errorf("event %d has no name", k)
		}
	}
}

func TestNilTracerZeroAllocs(t *testing.T) {
	// The nil fast path every instrumented call site relies on.
	var tr Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		if tr != nil {
			tr.Event(EvPageRead, 1)
		}
	})
	if allocs != 0 {
		t.Errorf("nil tracer check allocates %.1f per op", allocs)
	}
}
