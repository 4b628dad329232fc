package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xrtree"
	"xrtree/internal/datagen"
)

// testStore creates a memory store sized like the paper's setup but small.
func testStore(t *testing.T) *xrtree.Store {
	t.Helper()
	st, err := xrtree.NewMemStore(xrtree.StoreOptions{PageSize: 1024, BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func deptDoc(t *testing.T, docID uint32, seed int64) *xrtree.Document {
	t.Helper()
	doc, err := datagen.Department(datagen.DeptConfig{
		Seed: seed, DocID: docID, Departments: 4, Employees: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// storeServer builds a server over a catalogued store backend named
// "dept" holding the department/employee/name sets of one generated doc.
func storeServer(t *testing.T, cfg Config) (*Server, *xrtree.Store) {
	t.Helper()
	st := testStore(t)
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
	return s, st
}

// docServer builds a server over a two-document collection backend named
// "docs" (path queries and parallel joins available).
func docServer(t *testing.T, cfg Config) (*Server, *xrtree.Store, int) {
	t.Helper()
	st := testStore(t)
	d1, d2 := deptDoc(t, 1, 1), deptDoc(t, 2, 2)
	employees := len(d1.ElementsByTag("employee")) + len(d2.ElementsByTag("employee"))
	s := New(cfg)
	if err := s.AddDocuments("docs", st, d1, d2); err != nil {
		t.Fatal(err)
	}
	return s, st, employees
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, body)
		}
	}
	return resp.StatusCode, string(body)
}

func TestJoinEndpointStoreBackend(t *testing.T) {
	s, st := storeServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var xr joinResponse
	code, body := getJSON(t, ts, "/api/v1/join?anc=employee&desc=name&alg=xr&limit=5", &xr)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if xr.Pairs <= 0 || len(xr.Sample) != 5 || !xr.Truncated {
		t.Fatalf("unexpected response: pairs=%d sample=%d truncated=%v", xr.Pairs, len(xr.Sample), xr.Truncated)
	}
	if xr.Backend != "dept" || xr.Query != "employee//name" || xr.Alg != "XR-stack" {
		t.Fatalf("bad echo fields: %+v", xr)
	}

	// Every algorithm agrees on the pair count — the server is a thin
	// shell over the join engine.
	for _, alg := range []string{"noindex", "mpmgjn", "bplus", "bplussp"} {
		var r joinResponse
		code, body := getJSON(t, ts, "/api/v1/join?anc=employee&desc=name&alg="+alg, &r)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", alg, code, body)
		}
		if r.Pairs != xr.Pairs {
			t.Errorf("%s: pairs = %d, want %d", alg, r.Pairs, xr.Pairs)
		}
	}

	// Parent-child axis yields fewer pairs than ancestor-descendant on a
	// nested corpus, and per-request stats arrive when asked for.
	var pc joinResponse
	code, body = getJSON(t, ts, "/api/v1/join?anc=employee&desc=name&axis=/&stats=1", &pc)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if pc.Pairs >= xr.Pairs {
		t.Errorf("parent-child pairs %d not < descendant pairs %d", pc.Pairs, xr.Pairs)
	}
	if pc.Phases == nil || pc.Events == nil || pc.Phases.AncProbes == 0 {
		t.Errorf("stats=1 response lacks phases/events: %+v", pc)
	}
	if pc.Stats.ElementsScanned == 0 {
		t.Error("per-request ElementsScanned = 0")
	}

	if n := st.PinnedPages(); n != 0 {
		t.Errorf("pinned pages after requests = %d, want 0", n)
	}
}

func TestJoinAndQueryDocumentBackend(t *testing.T) {
	s, st, employees := docServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var jr joinResponse
	code, body := getJSON(t, ts, "/api/v1/join?anc=department&desc=employee&workers=2", &jr)
	if code != http.StatusOK {
		t.Fatalf("join status %d: %s", code, body)
	}
	// Every employee sits under exactly one department in this DTD, so
	// department//employee covers all employees at least once.
	if jr.Pairs < int64(employees) {
		t.Errorf("join pairs = %d, want ≥ %d", jr.Pairs, employees)
	}
	if jr.Workers != 2 {
		t.Errorf("workers echo = %d, want 2", jr.Workers)
	}

	var qr queryResponse
	code, body = getJSON(t, ts, "/api/v1/query?path=departments//employee&limit=3", &qr)
	if code != http.StatusOK {
		t.Fatalf("query status %d: %s", code, body)
	}
	if qr.Matches != employees {
		t.Errorf("query matches = %d, want %d", qr.Matches, employees)
	}
	if len(qr.Sample) != 3 || !qr.Truncated {
		t.Errorf("sample = %d truncated=%v, want 3/true", len(qr.Sample), qr.Truncated)
	}

	if n := st.PinnedPages(); n != 0 {
		t.Errorf("pinned pages after requests = %d, want 0", n)
	}
}

func TestBadRequests(t *testing.T) {
	s, _ := storeServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		path string
		want int
	}{
		{"/api/v1/join?anc=employee", http.StatusBadRequest}, // missing desc
		{"/api/v1/join?anc=employee&desc=name&alg=zzz", http.StatusBadRequest},
		{"/api/v1/join?anc=employee&desc=name&axis=up", http.StatusBadRequest},
		{"/api/v1/join?anc=employee&desc=name&timeout=bogus", http.StatusBadRequest},
		{"/api/v1/join?anc=employee&desc=name&workers=-1", http.StatusBadRequest},
		{"/api/v1/join?anc=employee&desc=nosuch", http.StatusNotFound}, // unknown set
		{"/api/v1/join?backend=zzz&anc=a&desc=b", http.StatusNotFound}, // unknown backend
		{"/api/v1/query?path=a//b", http.StatusBadRequest},             // store backend: no path queries
	}
	for _, c := range cases {
		code, body := getJSON(t, ts, c.path, nil)
		if code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.path, code, c.want, body)
		}
		var eb errorBody
		if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error == "" || eb.Status != c.want {
			t.Errorf("%s: error body %q not well-formed", c.path, body)
		}
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: bad JSON: %v\n%s", path, err, raw)
		}
	}
	return resp.StatusCode, string(raw)
}

func TestInsertEndpoint(t *testing.T) {
	s, st := storeServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A wide parent plus a nested child, far above the generated corpus.
	const base = uint32(1) << 30
	req := insertRequest{Set: "employee", Elements: []xrtree.Element{
		{Start: base, End: base + 1000, Level: 1},
		{Start: base + 4, End: base + 6, Level: 2},
	}}
	var ins insertResponse
	code, body := postJSON(t, ts, "/api/v1/insert", req, &ins)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if ins.Backend != "dept" || ins.Set != "employee" || ins.Inserted != 2 {
		t.Fatalf("unexpected response: %+v", ins)
	}

	// The inserts land in the set's XR-tree: a fresh handle over the same
	// pages finds the wide parent as an ancestor of the nested child.
	set, err := st.OpenSet("employee")
	if err != nil {
		t.Fatal(err)
	}
	var stats xrtree.Stats
	anc, err := set.FindAncestors(base+4, &stats)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range anc {
		if e.Start == base && e.End == base+1000 {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted parent missing from FindAncestors: %+v", anc)
	}

	// Joins over the set still answer after the mutation.
	var jr joinResponse
	code, body = getJSON(t, ts, "/api/v1/join?anc=employee&desc=name&alg=xr", &jr)
	if code != http.StatusOK || jr.Pairs <= 0 {
		t.Fatalf("join after insert: status %d pairs %d: %s", code, jr.Pairs, body)
	}

	// Malformed inserts are refused with the usual error envelope.
	for _, c := range []struct {
		req  insertRequest
		want int
	}{
		{insertRequest{Elements: []xrtree.Element{{Start: 1, End: 2}}}, http.StatusBadRequest}, // no set
		{insertRequest{Set: "nosuch", Elements: []xrtree.Element{{Start: 1, End: 2}}}, http.StatusNotFound},
		{insertRequest{Set: "employee"}, http.StatusBadRequest},                                                 // no elements
		{insertRequest{Set: "employee", Elements: []xrtree.Element{{Start: 9, End: 9}}}, http.StatusBadRequest}, // degenerate
	} {
		code, body := postJSON(t, ts, "/api/v1/insert", c.req, nil)
		if code != c.want {
			t.Errorf("%+v: status %d, want %d (%s)", c.req, code, c.want, body)
		}
	}
}

func TestInsertRequiresStoreBackend(t *testing.T) {
	s, _, _ := docServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := insertRequest{Set: "employee", Elements: []xrtree.Element{{Start: 1, End: 2}}}
	code, body := postJSON(t, ts, "/api/v1/insert", req, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("document backend insert: status %d, want 400 (%s)", code, body)
	}
}

func TestAdmissionRejectsWhenSaturated(t *testing.T) {
	s, _ := storeServer(t, Config{MaxConcurrent: 1, MaxQueue: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only execution slot so the next arrival overflows.
	if err := s.lim.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.lim.Release()

	resp, err := ts.Client().Get(ts.URL + "/api/v1/join?anc=employee&desc=name")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response lacks Retry-After")
	}
	snap := s.met.Snapshot(s.lim.InFlight(), s.lim.Waiting())
	if snap.Rejected != 1 {
		t.Errorf("rejected count = %d, want 1", snap.Rejected)
	}
}

func TestAdmissionDeadlineWhileQueued(t *testing.T) {
	s, st := storeServer(t, Config{MaxConcurrent: 1, MaxQueue: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.lim.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.lim.Release()

	code, body := getJSON(t, ts, "/api/v1/join?anc=employee&desc=name&timeout=20ms", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (%s)", code, body)
	}
	if !strings.Contains(body, "deadline") {
		t.Errorf("503 body %q does not mention the deadline", body)
	}
	snap := s.met.Snapshot(s.lim.InFlight(), s.lim.Waiting())
	if snap.Timeouts != 1 {
		t.Errorf("timeout count = %d, want 1", snap.Timeouts)
	}
	// The canceled request must leave no pinned pages behind.
	if n := st.PinnedPages(); n != 0 {
		t.Errorf("pinned pages = %d, want 0", n)
	}
}

func TestTimedOutQueryLeaksNoPins(t *testing.T) {
	s, st := storeServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A 1ns deadline expires before (or during) the join; either way the
	// request must come back 503 with every page pin released.
	code, body := getJSON(t, ts, "/api/v1/join?anc=employee&desc=name&timeout=1ns", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (%s)", code, body)
	}
	if n := st.PinnedPages(); n != 0 {
		t.Errorf("pinned pages after timeout = %d, want 0", n)
	}
}

func TestConcurrentRequestsRaceClean(t *testing.T) {
	s, st, _ := docServer(t, Config{MaxConcurrent: 4, MaxQueue: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	const n = 24
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := "/api/v1/join?anc=department&desc=employee"
			if i%3 == 0 {
				path = "/api/v1/query?path=departments//employee/name"
			}
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d: status %d", i, code)
		}
	}
	if n := st.PinnedPages(); n != 0 {
		t.Errorf("pinned pages = %d, want 0", n)
	}
	snap := s.met.Snapshot(0, 0)
	if snap.OK != n || snap.Latency.Count != n {
		t.Errorf("metrics ok=%d latency.count=%d, want %d", snap.OK, snap.Latency.Count, n)
	}
}

func TestStatsAndDiscoveryEndpoints(t *testing.T) {
	s, _ := storeServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := getJSON(t, ts, "/api/v1/join?anc=employee&desc=name", nil); code != http.StatusOK {
		t.Fatalf("warmup join failed: %d", code)
	}

	code, body := getJSON(t, ts, "/healthz", nil)
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	var stats statsResponse
	if code, body := getJSON(t, ts, "/api/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("/api/v1/stats = %d: %s", code, body)
	}
	if stats.Server.Requests < 1 || stats.Server.OK < 1 {
		t.Errorf("stats counters not advancing: %+v", stats.Server)
	}
	if len(stats.Backends) != 1 || stats.Backends[0].Name != "dept" || stats.Backends[0].Pool.PinnedPages != 0 {
		t.Errorf("backend stats wrong: %+v", stats.Backends)
	}
	if stats.Server.Latency.Count < 1 || stats.Server.Latency.P99MS <= 0 {
		t.Errorf("latency digest empty: %+v", stats.Server.Latency)
	}

	var bl struct {
		Backends []backendInfo `json:"backends"`
	}
	if code, body := getJSON(t, ts, "/api/v1/backends", &bl); code != http.StatusOK {
		t.Fatalf("/api/v1/backends = %d: %s", code, body)
	}
	if len(bl.Backends) != 1 || bl.Backends[0].Kind != "store" || len(bl.Backends[0].Sets) != 3 {
		t.Errorf("backend listing wrong: %+v", bl.Backends)
	}
}

func TestGracefulDrain(t *testing.T) {
	s, _ := storeServer(t, Config{MaxConcurrent: 1, MaxQueue: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	base := fmt.Sprintf("http://%s", ln.Addr())

	// Hold the only slot so the request below is in flight (queued) when
	// Shutdown begins.
	if err := s.lim.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/api/v1/join?anc=employee&desc=name")
		if err != nil {
			reqDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.lim.Waiting() == 1 })

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- s.Shutdown(ctx)
	}()
	// Give the drain a moment to close the listener, then release the
	// slot: the queued request must still complete successfully.
	time.Sleep(20 * time.Millisecond)
	s.lim.Release()

	if code := <-reqDone; code != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d, want 200", code)
	}
	if err := <-shutDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

func TestParseTimeout(t *testing.T) {
	def, max := 5*time.Second, 30*time.Second
	if d, err := parseTimeout("", def, max); err != nil || d != def {
		t.Errorf("empty: %v %v", d, err)
	}
	if d, err := parseTimeout("250ms", def, max); err != nil || d != 250*time.Millisecond {
		t.Errorf("250ms: %v %v", d, err)
	}
	if d, err := parseTimeout("5m", def, max); err != nil || d != max {
		t.Errorf("cap: %v %v", d, err)
	}
	if _, err := parseTimeout("-1s", def, max); err == nil {
		t.Error("negative accepted")
	}
	if _, err := parseTimeout("soon", def, max); err == nil {
		t.Error("garbage accepted")
	}
}
