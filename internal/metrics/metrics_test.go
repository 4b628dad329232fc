package metrics

import (
	"strings"
	"testing"
	"time"

	"xrtree/internal/obs"
)

func TestAddAccumulates(t *testing.T) {
	a := Counters{ElementsScanned: 1, BufferMisses: 2, PhysicalReads: 3, Elapsed: time.Second}
	b := Counters{ElementsScanned: 10, BufferHits: 5, OutputPairs: 7}
	a.Add(&b)
	if a.ElementsScanned != 11 || a.BufferMisses != 2 || a.BufferHits != 5 ||
		a.OutputPairs != 7 || a.PhysicalReads != 3 || a.Elapsed != time.Second {
		t.Errorf("Add result wrong: %+v", a)
	}
	a.Add(nil) // must not panic
}

func TestReset(t *testing.T) {
	c := Counters{ElementsScanned: 5, Elapsed: time.Minute}
	c.Reset()
	if c != (Counters{}) {
		t.Errorf("Reset left %+v", c)
	}
}

func TestPageAccesses(t *testing.T) {
	c := Counters{BufferHits: 3, BufferMisses: 4}
	if got := c.PageAccesses(); got != 7 {
		t.Errorf("PageAccesses = %d, want 7", got)
	}
}

func TestDerivedTime(t *testing.T) {
	m := CostModel{PerMiss: time.Millisecond, PerScan: time.Microsecond}
	c := Counters{BufferMisses: 10, ElementsScanned: 1000}
	want := 10*time.Millisecond + 1000*time.Microsecond
	if got := m.DerivedTime(&c); got != want {
		t.Errorf("DerivedTime = %v, want %v", got, want)
	}
}

func TestStringIncludesKeyFields(t *testing.T) {
	c := Counters{ElementsScanned: 42, BufferMisses: 7, Elapsed: time.Second}
	s := c.String()
	for _, want := range []string{"scanned=42", "misses=7", "elapsed="} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	zero := Counters{}
	if strings.Contains(zero.String(), "elapsed=") {
		t.Error("zero counters should omit elapsed")
	}
}

func TestEmitRoutesToTracer(t *testing.T) {
	col := obs.NewCollector()
	c := Counters{Tracer: col}
	c.Emit(obs.EvSkipDesc, 42)
	if col.Count(obs.EvSkipDesc) != 1 || col.Value(obs.EvSkipDesc) != 42 {
		t.Errorf("event not delivered: count=%d value=%d",
			col.Count(obs.EvSkipDesc), col.Value(obs.EvSkipDesc))
	}
	// Nil receiver and nil tracer are both no-ops.
	(*Counters)(nil).Emit(obs.EvSkipDesc, 1)
	(&Counters{}).Emit(obs.EvSkipDesc, 1)
}

func TestNilTracerEmitZeroAllocs(t *testing.T) {
	var c Counters
	allocs := testing.AllocsPerRun(1000, func() {
		c.Emit(obs.EvPageRead, 1)
		c.ElementsScanned++
	})
	if allocs != 0 {
		t.Errorf("Emit with nil tracer allocates %.1f per op", allocs)
	}
}

func TestResetPreservesTracer(t *testing.T) {
	col := obs.NewCollector()
	c := Counters{ElementsScanned: 9, Tracer: col}
	c.Reset()
	if c.ElementsScanned != 0 {
		t.Error("Reset did not zero counters")
	}
	if c.Tracer != obs.Tracer(col) {
		t.Error("Reset dropped the tracer")
	}
}

func TestAddIgnoresTracerAndEvictions(t *testing.T) {
	col := obs.NewCollector()
	a := Counters{PageEvictions: 1}
	b := Counters{PageEvictions: 2, Tracer: col}
	a.Add(&b)
	if a.PageEvictions != 3 {
		t.Errorf("PageEvictions = %d, want 3", a.PageEvictions)
	}
	if a.Tracer != nil {
		t.Error("Add must not copy the tracer")
	}
}

func TestTimer(t *testing.T) {
	var c Counters
	tm := StartTimer(&c)
	time.Sleep(2 * time.Millisecond)
	tm.Stop()
	if c.Elapsed < time.Millisecond {
		t.Errorf("Elapsed = %v, want ≥ 1ms", c.Elapsed)
	}
	// nil-safe
	StartTimer(nil).Stop()
}
