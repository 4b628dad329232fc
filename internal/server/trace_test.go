package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xrtree"
	"xrtree/internal/obs"
)

// tracedStoreServer is storeServer with tracing on and a tiny buffer pool,
// so every join performs physical page reads that must show up as span
// attributes.
func tracedStoreServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	st, err := xrtree.NewMemStore(xrtree.StoreOptions{PageSize: 1024, BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	doc := deptDoc(t, 1, 42)
	for _, tag := range []string{"department", "employee", "name"} {
		set, err := st.IndexElements(doc.ElementsByTag(tag), xrtree.IndexOptions{})
		if err != nil {
			t.Fatalf("index %s: %v", tag, err)
		}
		if err := st.SaveSet(tag, set); err != nil {
			t.Fatalf("save %s: %v", tag, err)
		}
	}
	s := New(cfg)
	if err := s.AddStore("dept", st); err != nil {
		t.Fatal(err)
	}
	return s
}

func findTrace(t *testing.T, s *Server, id string) *obs.TraceRecord {
	t.Helper()
	for _, rec := range s.Recorder().Snapshot() {
		if rec.TraceID == id {
			return rec
		}
	}
	t.Fatalf("trace %s not in the flight recorder", id)
	return nil
}

// TestTracedJoinEndToEnd is the acceptance check of the tracing tentpole:
// a sampled join yields a span tree in the flight recorder whose leaf
// spans account for the request's page reads and whose root duration is
// the same measurement recorded as EvServeSpan.
func TestTracedJoinEndToEnd(t *testing.T) {
	s := tracedStoreServer(t, Config{TraceSample: 1, TraceSeed: 7})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/api/v1/join?anc=employee&desc=name&alg=xr&stats=1")
	if err != nil {
		t.Fatal(err)
	}
	var jr joinResponse
	decodeBody(t, resp, &jr)
	if jr.TraceID == "" {
		t.Fatal("traced response carries no trace_id")
	}
	tid, _, sampled, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || !sampled || tid.String() != jr.TraceID {
		t.Fatalf("response traceparent %q does not echo trace %s", resp.Header.Get("traceparent"), jr.TraceID)
	}

	rec := findTrace(t, s, jr.TraceID)
	if len(rec.Spans) < 2 {
		t.Fatalf("want a root and a join span, got %d spans", len(rec.Spans))
	}
	if !strings.HasPrefix(rec.Name, "serve ") {
		t.Errorf("root span name %q", rec.Name)
	}

	// Page reads: the trace totals must match the per-request collector
	// delta (stats=1 chains the collector as the trace sink, so both saw
	// the identical event stream), and the span attributes must account
	// for the totals.
	reads := rec.Totals[obs.EvPageRead.String()].Count
	if reads == 0 {
		t.Fatal("no page reads traced despite a 4-page buffer pool")
	}
	if got := jr.Events.Events[obs.EvPageRead.String()].Count; got != reads {
		t.Errorf("request PageRead delta %d, trace totals %d", got, reads)
	}
	var spanReads int64
	for _, sp := range rec.Spans {
		spanReads += sp.Attrs[obs.EvPageRead.String()].Count
	}
	if spanReads != reads {
		t.Errorf("span attributes account for %d page reads, trace saw %d", spanReads, reads)
	}

	// Root duration: the identical value recorded as EvServeSpan. One
	// admitted request ran, so the serving histogram's sum is that value.
	if sum := s.met.col.Snapshot().Events[obs.EvServeSpan.String()].Sum; sum != rec.DurNS {
		t.Errorf("root DurNS %d != EvServeSpan measurement %d", rec.DurNS, sum)
	}
}

func decodeBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestTraceparentAdoption: an incoming sampled traceparent forces tracing
// even at sample rate 0, adopting the caller's trace id; an unsampled one
// does not.
func TestTraceparentAdoption(t *testing.T) {
	s := tracedStoreServer(t, Config{TraceSample: 0})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := obs.NewIDSource(11)
	tid, parent := ids.TraceID(), ids.SpanID()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/join?anc=employee&desc=name", nil)
	req.Header.Set("traceparent", obs.Traceparent(tid, parent, true))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var jr joinResponse
	decodeBody(t, resp, &jr)
	if jr.TraceID != tid.String() {
		t.Fatalf("trace id %q, want the propagated %s", jr.TraceID, tid)
	}
	rec := findTrace(t, s, tid.String())
	if rec.RemoteParent != parent.String() {
		t.Errorf("RemoteParent %q, want the caller's span %s", rec.RemoteParent, parent)
	}

	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/join?anc=employee&desc=name", nil)
	req2.Header.Set("traceparent", obs.Traceparent(ids.TraceID(), ids.SpanID(), false))
	resp2, err := ts.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	var jr2 joinResponse
	decodeBody(t, resp2, &jr2)
	if jr2.TraceID != "" || resp2.Header.Get("traceparent") != "" {
		t.Error("unsampled traceparent at rate 0 still produced a trace")
	}
	if got := s.rec.Stats().Recorded; got != 1 {
		t.Errorf("recorder holds %d traces, want 1", got)
	}
}

// TestSlowTraceQueryablePinned: a request past the slow threshold arrives
// pinned in /debug/traces.
func TestSlowTraceQueryablePinned(t *testing.T) {
	s := tracedStoreServer(t, Config{TraceSample: 1, SlowTrace: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/api/v1/join?anc=employee&desc=name")
	if err != nil {
		t.Fatal(err)
	}
	var jr joinResponse
	decodeBody(t, resp, &jr)

	var tresp tracesResponse
	code, body := getJSON(t, ts, "/debug/traces", &tresp)
	if code != http.StatusOK {
		t.Fatalf("/debug/traces: %d %s", code, body)
	}
	if tresp.Stats.Slow != 1 || tresp.Stats.Recorded != 1 {
		t.Fatalf("recorder stats %+v", tresp.Stats)
	}
	found := false
	for _, rec := range tresp.Traces {
		if rec.TraceID == jr.TraceID {
			found = true
			if !rec.Pinned {
				t.Error("slow trace not pinned")
			}
		}
	}
	if !found {
		t.Fatalf("trace %s missing from /debug/traces", jr.TraceID)
	}
}

// TestMetricsEndpointLints: the exposition covers the serving counters,
// the event histograms, and the per-backend pool counters, and survives
// the same linter the smoke scripts run via xrtrace -promlint.
func TestMetricsEndpointLints(t *testing.T) {
	s := tracedStoreServer(t, Config{TraceSample: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if code, body := getJSON(t, ts, "/api/v1/join?anc=employee&desc=name&stats=1", nil); code != http.StatusOK {
			t.Fatalf("join: %d %s", code, body)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"xrtree_serve_requests_total 3",
		`xrtree_pool_buffer_hits_total{backend="dept"}`,
		`xrtree_event_value_bucket{kind="ServeSpan",le="+Inf"}`,
		"xrtree_traces_recorded_total 3",
		"xrtree_serve_queue_depth 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if problems := obs.PromLint(strings.NewReader(body)); len(problems) != 0 {
		t.Fatalf("/metrics fails lint:\n%s\n---\n%s", strings.Join(problems, "\n"), body)
	}
}

// TestQueueDepthSampledBothEnds: the depth histogram gets an admission
// and a completion sample per request, and /api/v1/stats reports the live
// gauge.
func TestQueueDepthSampledBothEnds(t *testing.T) {
	s := tracedStoreServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 4
	for i := 0; i < n; i++ {
		if code, body := getJSON(t, ts, "/api/v1/join?anc=employee&desc=name", nil); code != http.StatusOK {
			t.Fatalf("join: %d %s", code, body)
		}
	}
	if got := s.met.col.Count(obs.EvServeQueueDepth); got != 2*n {
		t.Errorf("queue-depth samples = %d, want %d (admission + completion per request)", got, 2*n)
	}
	var st statsResponse
	code, body := getJSON(t, ts, "/api/v1/stats", &st)
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	if st.Server.QueueDepth != 0 {
		t.Errorf("idle queue_depth gauge = %d", st.Server.QueueDepth)
	}
	if !strings.Contains(body, `"queue_depth"`) {
		t.Error("queue_depth absent from /api/v1/stats JSON")
	}
}
