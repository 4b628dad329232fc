package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"xrtree"
	"xrtree/internal/cluster"
	"xrtree/internal/datagen"
	"xrtree/internal/obs"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire.golden from this build's responses")

// wireGolden holds the decoded responses of TestResponseWireFormat's
// requests, with the fields that vary from run to run zeroed. Values are
// compared, not bytes, so the file is independent of the wire format and
// a formatting change must leave it as it is.
const wireGolden = "testdata/wire.golden"

// wireCase is one request of TestResponseWireFormat and the type its body
// decodes into.
type wireCase struct {
	name   string
	ts     *httptest.Server
	path   string
	status int
	decode func([]byte) (any, error)
}

func decodeAs[T any](mask func(*T)) func([]byte) (any, error) {
	return func(body []byte) (any, error) {
		v := new(T)
		if err := json.Unmarshal(body, v); err != nil {
			return nil, err
		}
		if mask != nil {
			mask(v)
		}
		return v, nil
	}
}

func maskJoin(v *joinResponse)   { v.Stats.ElapsedMS = 0 }
func maskQuery(v *queryResponse) { v.Stats.ElapsedMS = 0 }

// maskStats keeps the outcome counters and the pool digests, and drops the
// latency summaries and event histograms.
func maskStats(v *statsResponse) {
	v.Server.Latency = xrtree.LatencySummary{}
	v.Server.QueueWait = xrtree.LatencySummary{}
	v.Server.Events = obs.Snapshot{}
}

// TestResponseWireFormat checks that every JSON response is compact and
// framed by Content-Length, never chunked, including a join whose body is
// over net/http's 2 KiB pre-chunking buffer and a routed scatter-gather
// join, and that the decoded values equal the golden ones.
func TestResponseWireFormat(t *testing.T) {
	s, _, _ := docServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	f := newFleet(t, Config{}, cluster.Options{})

	cases := []wireCase{
		{"join limit=10", ts, "/api/v1/join?backend=docs&anc=employee&desc=name&limit=10", http.StatusOK, decodeAs(maskJoin)},
		{"join limit=500", ts, "/api/v1/join?backend=docs&anc=department&desc=employee&axis=/&limit=500&docs=1", http.StatusOK, decodeAs(maskJoin)},
		{"query", ts, "/api/v1/query?backend=docs&path=department//employee/name", http.StatusOK, decodeAs(maskQuery)},
		{"error 400", ts, "/api/v1/join?backend=docs&anc=employee", http.StatusBadRequest, decodeAs[errorBody](nil)},
		// Last on this server, so its counters cover the requests above.
		{"stats", ts, "/api/v1/stats", http.StatusOK, decodeAs(maskStats)},
		{"routed join", f.router, "/api/v1/join?anc=employee&desc=name", http.StatusOK, decodeAs(maskJoin)},
	}

	got := make(map[string]any, len(cases))
	for _, c := range cases {
		resp, err := c.ts.Client().Get(c.ts.URL + c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d: %s", c.name, resp.StatusCode, c.status, body)
		}
		v, err := c.decode(body)
		if err != nil {
			t.Fatalf("%s: bad JSON: %v\n%s", c.name, err, body)
		}
		got[c.name] = v
		if *updateWire {
			continue
		}
		if bytes.Contains(body, []byte("\n ")) {
			t.Errorf("%s: body is indented:\n%s", c.name, body)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q, body is %d bytes", c.name, cl, len(body))
		}
		if len(resp.TransferEncoding) > 0 || resp.Header.Get("Transfer-Encoding") != "" {
			t.Errorf("%s: Transfer-Encoding %v", c.name, resp.TransferEncoding)
		}
		if c.name == "join limit=500" && len(body) <= 2048 {
			t.Errorf("%s: body is %d bytes, want over 2 KiB", c.name, len(body))
		}
	}

	if *updateWire {
		// One case per line, in request order.
		var out bytes.Buffer
		out.WriteString("{\n")
		for i, c := range cases {
			raw, err := json.Marshal(got[c.name])
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				out.WriteString(",\n")
			}
			fmt.Fprintf(&out, "%q: %s", c.name, raw)
		}
		out.WriteString("\n}\n")
		if err := os.WriteFile(wireGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]json.RawMessage
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		want, err := c.decode(golden[c.name])
		if err != nil {
			t.Fatalf("%s: golden entry: %v", c.name, err)
		}
		if !reflect.DeepEqual(got[c.name], want) {
			t.Errorf("%s: decoded response differs from the golden one\n got %+v\nwant %+v", c.name, got[c.name], want)
		}
	}
}

// TestWriteJSONUnencodable checks that a value encoding/json refuses
// answers 500 with the JSON error body: the body is encoded before the
// header is written, so the failure can still change the status.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, struct {
		X float64 `json:"x"`
	}{math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body.Bytes())
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("bad error body: %v\n%s", err, rec.Body.Bytes())
	}
	if eb.Status != http.StatusInternalServerError || !strings.Contains(eb.Error, "NaN") {
		t.Errorf("error body %+v", eb)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q, body is %d bytes", cl, rec.Body.Len())
	}
}

// benchServe drives the admitted handler for target through httptest
// recorders (no sockets) over a two-document collection sized like the
// serve_mixed workload's documents (one department, 40–60 employees), and
// reports the response size alongside time and allocations.
func benchServe(b *testing.B, target string) {
	st := testStore(b)
	var docs []*xrtree.Document
	for id, seed := range []int64{6, 7} { // 43 and 61 employees
		doc, err := datagen.Department(datagen.DeptConfig{
			Seed: seed, DocID: uint32(id + 1), Departments: 1, Employees: 4, PositionGap: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		docs = append(docs, doc)
	}
	s := New(Config{})
	if err := s.AddDocuments("docs", st, docs...); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req) // builds the lazy tag indexes
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var respBytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		respBytes += int64(rec.Body.Len())
	}
	b.ReportMetric(float64(respBytes)/float64(b.N), "resp-B/op")
}

// BenchmarkServeJoin is the server-handler layer's benchmark: one
// serve_mixed-shaped join request (a docs= subset, limit=10).
func BenchmarkServeJoin(b *testing.B) {
	benchServe(b, "/api/v1/join?backend=docs&anc=employee&desc=name&axis=desc&alg=xr&limit=10&docs=1-2")
}

// BenchmarkServeQuery is BenchmarkServeJoin for a path query.
func BenchmarkServeQuery(b *testing.B) {
	benchServe(b, "/api/v1/query?backend=docs&path=department//employee/name&limit=10&docs=1-2")
}
