// Package a models the obs span API for the spanend analyzer tests: a
// Span with End/EndDur, a Counters-style wrapper whose StartSpan returns
// one, and a routerTrace-shaped wrapper returning a possibly-nil span.
package a

type Span struct{}

func (s *Span) End()                        {}
func (s *Span) EndDur(d int64)              {}
func (s *Span) StartSpan(name string) *Span { return nil }

type Counters struct{ Tracer any }

func (c *Counters) StartSpan(name string) *Span { return nil }

func work() error { return nil }

func takeOwnership(sp *Span) {}

type holder struct{ span *Span }

// routerTrace mirrors the server's wrapper: it starts a span and returns
// it (nil when tracing is off) — callers inherit the End obligation.
func routerTrace(c *Counters) (*Span, int) {
	return c.StartSpan("request"), 1
}

// ---- negative cases ----

func goodDeferEnd(c *Counters) error {
	sp := c.StartSpan("query")
	defer sp.End()
	return work()
}

func goodBothPaths(c *Counters) error {
	sp := c.StartSpan("join")
	if err := work(); err != nil {
		sp.End()
		return err
	}
	sp.EndDur(42)
	return nil
}

func goodNilGuard(c *Counters) {
	sp, n := routerTrace(c)
	_ = n
	if sp != nil {
		defer sp.End()
	}
	work()
}

func goodNilReturn(c *Counters) error {
	sp, _ := routerTrace(c)
	if sp == nil {
		return work() // never started on this side
	}
	defer sp.End()
	return work()
}

func goodDeferredClosure(c *Counters) error {
	sp := c.StartSpan("scan")
	defer func() {
		sp.End()
	}()
	return work()
}

func goodTransferField(c *Counters, h *holder) {
	sp := c.StartSpan("pinned")
	h.span = sp // the holder owns the End now
}

func goodTransferArg(c *Counters) {
	sp := c.StartSpan("handoff")
	takeOwnership(sp)
}

func goodGoroutineBody(c *Counters) {
	go func() {
		sp := c.StartSpan("task")
		defer sp.End()
		work()
	}()
}

func goodLoop(c *Counters, n int) {
	for i := 0; i < n; i++ {
		sp := c.StartSpan("iter")
		work()
		sp.End()
	}
}

//xrvet:spanend-ignore lifecycle handed to the flight recorder under test
func ignoredLeak(c *Counters) {
	_ = c.StartSpan("recorded").StartSpan("child")
}

// ---- positive cases ----

func badErrorPath(c *Counters) error {
	sp := c.StartSpan("join")
	if err := work(); err != nil {
		return err // want `span leak: sp started at line \d+ is not ended on this return path`
	}
	sp.End()
	return nil
}

func badDiscard(c *Counters) {
	c.StartSpan("dropped") // want `span leak: started span from c.StartSpan is discarded`
}

func badWrapperCaller(c *Counters) {
	sp, _ := routerTrace(c) // the wrapper's span is inherited here
	if sp != nil {
		work()
	}
} // want `span leak: sp started at line \d+ is not ended on this return path`

func badGoroutineBody(c *Counters) {
	go func() {
		sp := c.StartSpan("task")
		if sp == nil {
			return
		}
		work()
	}() // want `span leak: sp started at line \d+ is not ended on this return path`
}

func badLoop(c *Counters, n int) {
	for i := 0; i < n; i++ {
		sp := c.StartSpan("iter") // want `span leak: sp started at line \d+ is not ended when the loop repeats`
		if sp == nil {
			continue
		}
		work()
	}
}

func badOverwrite(c *Counters) {
	sp := c.StartSpan("first")
	sp = c.StartSpan("second") // want `span leak: sp is overwritten while still unended \(started at line \d+\)`
	sp.End()
}

// badBreakOuter leaves the loop from inside a switch with the iteration's
// span open: `break outer` exits the loop, not just the switch.
func badBreakOuter(c *Counters, ks []int) {
outer:
	for _, k := range ks {
		sp := c.StartSpan("iter")
		switch k {
		case 0:
			break outer
		}
		sp.End()
	}
} // want `span leak: sp started at line \d+ is not ended on this return path`

//xrvet:spanend-ignore
func bareIgnored(c *Counters) { // want `bare //xrvet:spanend-ignore escape: add a justification`
	c.StartSpan("dropped")
}
