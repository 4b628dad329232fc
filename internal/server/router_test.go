package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"xrtree"
	"xrtree/internal/cluster"
	"xrtree/internal/obs"
)

// fleet is a three-shard cluster plus the single-node reference server
// holding the union of the fleet's documents: the setup behind the
// scatter-gather equivalence proof.
type fleet struct {
	router   *httptest.Server // router-mode server over the coordinator
	single   *httptest.Server // one node holding all six documents
	servers  map[string]*Server
	backends map[string]*httptest.Server
	coord    *cluster.Coordinator
}

func rangeOwns(lo, hi uint32) func(uint32) bool {
	return func(id uint32) bool { return id >= lo && id <= hi }
}

// newFleet builds three shards owning DocIds 1-2 / 3-4 / 5-6. Shard a also
// holds a stray, unowned copy of document 3: ownership filtering must keep
// it invisible so the duplicate cannot double-count.
//
// Timeouts are generous throughout: under the race detector on a one-CPU
// machine a scatter-gather request runs many seconds, and these tests
// assert correctness, not latency. Hedging defaults off for the same
// reason (it doubles load without a second CPU to absorb it); the hedging
// machinery has its own unit tests in internal/cluster.
func newFleet(t *testing.T, routerCfg Config, opt cluster.Options) *fleet {
	t.Helper()
	f := &fleet{servers: make(map[string]*Server), backends: make(map[string]*httptest.Server)}

	shard := func(name string, lo, hi uint32, docIDs ...uint32) {
		st := testStore(t)
		s := New(Config{ShardName: name, Owns: rangeOwns(lo, hi), DefaultTimeout: time.Minute})
		var docs []*xrtree.Document
		for _, id := range docIDs {
			docs = append(docs, deptDoc(t, id, int64(id)))
		}
		if err := s.AddDocuments("docs", st, docs...); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		f.servers[name] = s
		f.backends[name] = ts
	}
	shard("a", 1, 2, 1, 2, 3) // doc 3 present but unowned
	shard("b", 3, 4, 3, 4)
	shard("c", 5, 6, 5, 6)

	st := testStore(t)
	single := New(Config{DefaultTimeout: time.Minute})
	var all []*xrtree.Document
	for id := uint32(1); id <= 6; id++ {
		all = append(all, deptDoc(t, id, int64(id)))
	}
	if err := single.AddDocuments("docs", st, all...); err != nil {
		t.Fatal(err)
	}
	f.single = httptest.NewServer(single.Handler())
	t.Cleanup(f.single.Close)

	ccfg := &cluster.Config{Shards: []cluster.ShardSpec{
		{Name: "a", Addr: f.backends["a"].URL, Lo: 1, Hi: 2, HasRange: true},
		{Name: "b", Addr: f.backends["b"].URL, Lo: 3, Hi: 4, HasRange: true},
		{Name: "c", Addr: f.backends["c"].URL, Lo: 5, Hi: 6, HasRange: true},
	}}
	if opt.SubTimeout == 0 {
		opt.SubTimeout = 30 * time.Second
	}
	if opt.HedgeAfter == 0 {
		opt.HedgeAfter = 30 * time.Second
	}
	if routerCfg.DefaultTimeout == 0 {
		routerCfg.DefaultTimeout = time.Minute
	}
	co, err := cluster.New(ccfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	co.Start()
	t.Cleanup(co.Close)
	f.coord = co

	rs := NewRouter(routerCfg, co)
	f.servers["router"] = rs
	f.router = httptest.NewServer(rs.Handler())
	t.Cleanup(f.router.Close)
	return f
}

// sampleOf decodes the fields the equivalence proof compares: the result
// total and the raw bytes of the sample array.
type sampleOf struct {
	Pairs        int64           `json:"pairs"`
	Matches      int             `json:"matches"`
	Truncated    bool            `json:"truncated"`
	Sample       json.RawMessage `json:"sample"`
	Shards       int             `json:"shards"`
	ShardsFailed []string        `json:"shards_failed"`
	Degraded     bool            `json:"degraded"`
}

func fetchSample(t *testing.T, ts *httptest.Server, path string) (sampleOf, *http.Response) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out sampleOf
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
	}
	return out, resp
}

// TestRouterEquivalence is the acceptance proof of the tentpole: a
// scatter-gather join over three shards returns byte-identical results —
// same pairs, same document order — to the single-node join over the union
// of the fleet's documents, despite the stray duplicate of document 3.
func TestRouterEquivalence(t *testing.T) {
	f := newFleet(t, Config{}, cluster.Options{})

	const join = "/api/v1/join?anc=employee&desc=name&limit=100000"
	want, wresp := fetchSample(t, f.single, join)
	got, gresp := fetchSample(t, f.router, join)
	if wresp.StatusCode != http.StatusOK || gresp.StatusCode != http.StatusOK {
		t.Fatalf("status single=%d router=%d", wresp.StatusCode, gresp.StatusCode)
	}
	if want.Pairs == 0 {
		t.Fatal("reference join found nothing")
	}
	if got.Pairs != want.Pairs || got.Truncated != want.Truncated {
		t.Fatalf("router pairs=%d truncated=%v, single-node %d/%v", got.Pairs, got.Truncated, want.Pairs, want.Truncated)
	}
	if string(got.Sample) != string(want.Sample) {
		t.Fatalf("join sample streams differ:\nrouter: %.200s\nsingle: %.200s", got.Sample, want.Sample)
	}
	if got.Shards != 3 || len(got.ShardsFailed) != 0 || got.Degraded {
		t.Fatalf("router meta = %+v", got)
	}

	const query = "/api/v1/query?path=departments//employee&limit=100000"
	want, _ = fetchSample(t, f.single, query)
	got, _ = fetchSample(t, f.router, query)
	if want.Matches == 0 || got.Matches != want.Matches {
		t.Fatalf("query matches: router %d, single-node %d", got.Matches, want.Matches)
	}
	if string(got.Sample) != string(want.Sample) {
		t.Fatalf("query sample streams differ:\nrouter: %.200s\nsingle: %.200s", got.Sample, want.Sample)
	}

	// The parent-child axis and the truncation path must agree too.
	const pc = "/api/v1/join?anc=employee&desc=name&axis=/&limit=7"
	want, _ = fetchSample(t, f.single, pc)
	got, _ = fetchSample(t, f.router, pc)
	if got.Pairs != want.Pairs || string(got.Sample) != string(want.Sample) || !got.Truncated {
		t.Fatalf("parent-child/limit mismatch: router %d/%v, single-node %d", got.Pairs, got.Truncated, want.Pairs)
	}

	// limit=0 asks for the counts alone: no sample from either.
	for _, path := range []string{
		"/api/v1/join?anc=employee&desc=name&limit=0",
		"/api/v1/query?path=departments//employee&limit=0",
	} {
		want, _ = fetchSample(t, f.single, path)
		got, _ = fetchSample(t, f.router, path)
		if want.Pairs+int64(want.Matches) == 0 || got.Pairs != want.Pairs || got.Matches != want.Matches || got.Truncated != want.Truncated {
			t.Fatalf("%s: router %d pairs %d matches truncated=%v, single-node %d/%d/%v",
				path, got.Pairs, got.Matches, got.Truncated, want.Pairs, want.Matches, want.Truncated)
		}
		if len(want.Sample) != 0 || string(got.Sample) != string(want.Sample) {
			t.Fatalf("%s: router sample %.200s, single-node %.200s, want none", path, got.Sample, want.Sample)
		}
	}
}

// TestShardRefusesMisdirectedDocs: explicitly asking a shard for a
// document it holds but does not own is a 421, not a silently served
// duplicate.
func TestShardRefusesMisdirectedDocs(t *testing.T) {
	f := newFleet(t, Config{}, cluster.Options{})
	_, resp := fetchSample(t, f.backends["a"], "/api/v1/join?anc=employee&desc=name&docs=3")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("status %d, want 421", resp.StatusCode)
	}
	// The same docs= set against the owner is fine.
	got, resp := fetchSample(t, f.backends["b"], "/api/v1/join?anc=employee&desc=name&docs=3&limit=100000")
	if resp.StatusCode != http.StatusOK || got.Pairs == 0 {
		t.Fatalf("owner refused its own document: status %d pairs %d", resp.StatusCode, got.Pairs)
	}
}

// TestRouterDegradedMode: with one shard killed, partial=1 requests serve
// the healthy shards' results (still in document order, still correct)
// with the casualty in shards_failed; fail-fast requests get 502; nothing
// hangs and no goroutines leak.
func TestRouterDegradedMode(t *testing.T) {
	f := newFleet(t, Config{}, cluster.Options{
		ProbeInterval: 50 * time.Millisecond,
	})

	// Warm path (also primes the inventory cache) and goroutine baseline.
	if _, resp := fetchSample(t, f.router, "/api/v1/join?anc=employee&desc=name"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy request failed: %d", resp.StatusCode)
	}
	baseline := runtime.NumGoroutine()

	f.backends["c"].Close()

	const degradedJoin = "/api/v1/join?anc=employee&desc=name&limit=100000&partial=1"
	var got sampleOf
	var resp *http.Response
	for i := 0; i < 5; i++ {
		got, resp = fetchSample(t, f.router, degradedJoin)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded request got status %d", resp.StatusCode)
		}
	}
	if len(got.ShardsFailed) != 1 || got.ShardsFailed[0] != "c" || !got.Degraded {
		t.Fatalf("shards_failed = %v degraded=%v, want [c] true", got.ShardsFailed, got.Degraded)
	}
	if resp.Header.Get("X-XR-Shards-Failed") != "1" {
		t.Fatalf("X-XR-Shards-Failed = %q", resp.Header.Get("X-XR-Shards-Failed"))
	}

	// The healthy shards' slice of the stream is exactly the single-node
	// result over their documents.
	want, _ := fetchSample(t, f.single, "/api/v1/join?anc=employee&desc=name&limit=100000&docs=1-4")
	if got.Pairs != want.Pairs || string(got.Sample) != string(want.Sample) {
		t.Fatalf("degraded results diverge from single-node over docs 1-4: %d vs %d pairs", got.Pairs, want.Pairs)
	}

	// Fail-fast policy: same failure, typed 502.
	_, resp = fetchSample(t, f.router, "/api/v1/join?anc=employee&desc=name")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("fail-fast status = %d, want 502", resp.StatusCode)
	}

	// The router's metrics must show the shard down and stay lint-clean.
	deadline := time.Now().Add(3 * time.Second)
	for {
		mresp, err := f.router.Client().Get(f.router.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if _, err := io.Copy(&sb, mresp.Body); err != nil {
			t.Fatal(err)
		}
		mresp.Body.Close()
		body := sb.String()
		if problems := obs.PromLint(strings.NewReader(body)); len(problems) != 0 {
			t.Fatalf("router /metrics fails lint:\n%s", strings.Join(problems, "\n"))
		}
		if strings.Contains(body, `xr_cluster_shard_up{shard="c"} 0`) &&
			strings.Contains(body, `xr_cluster_degraded_total`) &&
			strings.Contains(body, `xr_cluster_subrequests_total{shard="a"}`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard c never marked down on /metrics:\n%s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// No goroutine leak: everything spawned per request must settle.
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+8 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew %d → %d after degraded traffic", baseline, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRouterTracePropagation: one sampled trace id spans the router and
// every shard it fanned out to.
func TestRouterTracePropagation(t *testing.T) {
	f := newFleet(t, Config{TraceSample: 1}, cluster.Options{})

	req, err := http.NewRequest(http.MethodGet, f.router.URL+"/api/v1/join?anc=employee&desc=name", nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := obs.NewIDSource(7)
	tid := ids.TraceID()
	req.Header.Set("traceparent", obs.Traceparent(tid, ids.SpanID(), true))
	resp, err := f.router.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var jr joinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jr.TraceID != tid.String() {
		t.Fatalf("router trace id %q, want adopted %q", jr.TraceID, tid)
	}

	// The router recorded the scatter span...
	rec := findTrace(t, f.servers["router"], tid.String())
	var scatter bool
	for _, sp := range rec.Spans {
		if strings.HasPrefix(sp.Name, "scatter join") {
			scatter = true
		}
	}
	if !scatter {
		t.Fatalf("router trace has no scatter span: %+v", rec.Spans)
	}
	// ...and every shard adopted the same trace id for its sub-request.
	for _, name := range []string{"a", "b", "c"} {
		findTrace(t, f.servers[name], tid.String())
	}
}
