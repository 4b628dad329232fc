package main

// serve_mixed: the HTTP serving layer under a request mix whose engine
// work is deliberately small, so parameter parsing, admission, lazy set
// lookup, JSON encoding and the observability hooks dominate.
//
// An in-process internal/server with its default Config listens on a real
// loopback socket. Two keep-alive clients run closed loops over a seeded
// mix: 60 % GET /api/v1/join over a collection of small documents with a
// docs= subset and limit=10, 30 % GET /api/v1/query from eight fixed path
// expressions, 10 % POST /api/v1/insert of two elements into a WAL-backed
// store. The lead op is a join request, the side op a query request;
// latency runs from client send to body read. Insert requests are part of
// the load; their latency is insert_req_ms_p50. Each element costs an
// fsync. (Eight elements per insert, as first planned, had the two clients
// wait on fsync for 70 % of the run, so requests per second measured the
// disk and not the server.)
//
// Every response is checked: status 200 and the pairs/matches/inserted
// count against per-document counts computed in set-up with
// join.Reference and pathexpr.Reference.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"xrtree"
	"xrtree/internal/cluster"
	"xrtree/internal/join"
	"xrtree/internal/pathexpr"
	"xrtree/internal/server"
	"xrtree/internal/xmldoc"
)

const (
	serveClients   = 2
	docsPerRequest = 2
	insertBatch    = 2
	flatSlots      = 7 // flat elements that fit in one numbering gap
)

type serveJoin struct {
	anc, desc, axis, alg string
	mode                 xrtree.Mode
}

var serveJoins = []serveJoin{
	{"employee", "name", "desc", "xr", xrtree.AncestorDescendant},
	{"employee", "email", "desc", "xr", xrtree.AncestorDescendant},
	{"department", "employee", "child", "xr", xrtree.ParentChild},
	{"employee", "employee", "desc", "bplus", xrtree.AncestorDescendant},
}

var serveQueries = []string{
	"department//employee/name",
	"department/employee",
	"employee[email]//name",
	"departments//email",
	"employee//employee/email",
	"department[email]/name",
	"employee/employee/employee",
	"departments/department/employee/name",
}

// request is one prepared request of the mix.
type request struct {
	insert bool
	query  bool
	target string // path and query
	body   []byte
	want   int64 // pairs, matches or inserted elements
	els    []xmldoc.Element
}

func (r request) opName() string {
	switch {
	case r.insert:
		return "op.insert_request"
	case r.query:
		return "op.query_request"
	}
	return "op.join_request"
}

// client is one closed-loop load generator.
type client struct {
	http *http.Client
	rng  *rand.Rand
	slot int // next insert slot of this client's share of the gaps
}

type serveWorkload struct {
	env
	docStore, insStore *xrtree.Store
	srv                *server.Server
	serveErr           chan error
	base               string
	docs               []*xmldoc.Document
	pairs              [][]int64 // [join][doc]
	matches            [][]int64 // [query][doc]
	insSet             []xmldoc.Element
	perm               []int
	clients            []*client
	acked              []xmldoc.Element
}

func (w *serveWorkload) lanes() int { return serveClients }

func (w *serveWorkload) setup() error {
	os.RemoveAll(w.dir)
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	var err error
	for i := 0; i < w.scale.serveDocs; i++ {
		doc, err := deptDocNear(w.seed, uint32(i+1), 1, w.scale.serveEmps[0], w.scale.serveEmps[1])
		if err != nil {
			return err
		}
		w.docs = append(w.docs, doc)
	}
	// Oracle: per-document counts from the brute-force references.
	w.pairs = make([][]int64, len(serveJoins))
	for j, sj := range serveJoins {
		for _, doc := range w.docs {
			ref := join.Reference(sj.mode, doc.ElementsByTag(sj.anc), doc.ElementsByTag(sj.desc))
			w.pairs[j] = append(w.pairs[j], int64(len(ref)))
		}
	}
	w.matches = make([][]int64, len(serveQueries))
	for q, expr := range serveQueries {
		p, err := pathexpr.Parse(expr)
		if err != nil {
			return err
		}
		for _, doc := range w.docs {
			w.matches[q] = append(w.matches[q], int64(len(pathexpr.Reference(p, doc))))
		}
	}

	if w.docStore, err = xrtree.NewMemStore(xrtree.StoreOptions{BufferPages: 8192}); err != nil {
		return err
	}
	if w.insStore, err = xrtree.CreateStore(filepath.Join(w.dir, "serve.db"), xrtree.StoreOptions{BufferPages: 4096, WAL: true}); err != nil {
		return err
	}
	if w.insSet, _, err = deptSets(w.seed+7, w.scale.serveSetElems, insertGap); err != nil {
		return err
	}
	set, err := w.insStore.IndexElements(w.insSet, xrtree.IndexOptions{SkipList: true, SkipBTree: true})
	if err != nil {
		return err
	}
	if err := w.insStore.SaveSet("employee", set); err != nil {
		return err
	}
	w.perm = rand.New(rand.NewSource(w.seed)).Perm(len(w.insSet))

	w.srv = server.New(server.Config{})
	if err := w.srv.AddDocuments("docs", w.docStore, w.docs...); err != nil {
		return err
	}
	if err := w.srv.AddStore("ingest", w.insStore); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.serveErr = make(chan error, 1)
	go func() { w.serveErr <- w.srv.Serve(ln) }()

	for c := 0; c < serveClients; c++ {
		w.clients = append(w.clients, &client{
			http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second},
			rng:  rand.New(rand.NewSource(w.seed*31 + int64(c))),
		})
	}

	// Warm-up: every join and query once over all documents (this builds
	// the lazily constructed indexes), then a short untimed round.
	cl := w.clients[0]
	all := make([]uint32, len(w.docs))
	for i := range all {
		all[i] = uint32(i + 1)
	}
	for j := range serveJoins {
		if _, ok, err := w.do(cl, w.joinRequest(j, all), nil); err != nil || !ok {
			return fmt.Errorf("warm-up join %d: ok=%v err=%v", j, ok, err)
		}
	}
	for q := range serveQueries {
		if _, ok, err := w.do(cl, w.queryRequest(q, all), nil); err != nil || !ok {
			return fmt.Errorf("warm-up query %q: ok=%v err=%v", serveQueries[q], ok, err)
		}
	}
	r, err := w.round(100*time.Millisecond, nil)
	if err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("warm-up round: %d of %d requests failed", r.failed, r.attempted)
	}
	return nil
}

func (w *serveWorkload) sum(per []int64, ids []uint32) int64 {
	var n int64
	for _, id := range ids {
		n += per[id-1]
	}
	return n
}

func (w *serveWorkload) joinRequest(j int, ids []uint32) request {
	sj := serveJoins[j]
	q := url.Values{"backend": {"docs"}, "anc": {sj.anc}, "desc": {sj.desc}, "axis": {sj.axis}, "alg": {sj.alg},
		"limit": {"10"}, "docs": {cluster.FormatDocSet(ids)}}
	return request{target: "/api/v1/join?" + q.Encode(), want: w.sum(w.pairs[j], ids)}
}

func (w *serveWorkload) queryRequest(qi int, ids []uint32) request {
	q := url.Values{"backend": {"docs"}, "path": {serveQueries[qi]}, "limit": {"10"}, "docs": {cluster.FormatDocSet(ids)}}
	return request{query: true, target: "/api/v1/query?" + q.Encode(), want: w.sum(w.matches[qi], ids)}
}

// insertRequest takes the next insertBatch free slots of client c's share
// of the numbering gaps.
func (w *serveWorkload) insertRequest(c int, cl *client) (request, error) {
	els := make([]xmldoc.Element, insertBatch)
	for i := range els {
		host := cl.slot / flatSlots * serveClients // index into perm, strided per client
		if host+c >= len(w.perm) {
			return request{}, errors.New("insert requests ran out of position gaps; raise serveSetElems")
		}
		els[i] = gapElement(w.insSet[w.perm[host+c]], uint32(1+2*(cl.slot%flatSlots)))
		cl.slot++
	}
	body, err := json.Marshal(map[string]any{"set": "employee", "elements": els})
	if err != nil {
		return request{}, err
	}
	return request{insert: true, target: "/api/v1/insert?backend=ingest", body: body, want: insertBatch, els: els}, nil
}

// next draws client c's next request from the mix.
func (w *serveWorkload) next(c int, cl *client) (request, error) {
	p := cl.rng.Intn(10)
	if p == 9 {
		return w.insertRequest(c, cl)
	}
	ids := make([]uint32, 0, docsPerRequest)
	for _, i := range cl.rng.Perm(len(w.docs))[:min(docsPerRequest, len(w.docs))] {
		ids = append(ids, uint32(i+1))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if p < 6 {
		return w.joinRequest(cl.rng.Intn(len(serveJoins)), ids), nil
	}
	return w.queryRequest(cl.rng.Intn(len(serveQueries)), ids), nil
}

// reply is the part of the three response bodies the benchmark reads.
type reply struct {
	Pairs     *int64  `json:"pairs"`
	Matches   *int64  `json:"matches"`
	Inserted  *int64  `json:"inserted"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Stats     struct {
		ElapsedMS float64 `json:"elapsed_ms"`
	} `json:"stats"`
}

// outcome is what one request returned.
type outcome struct {
	latency  time.Duration
	engineMS float64
	bytes    int
}

// do sends one request and checks the response. header, when non-nil, is
// added to the request.
func (w *serveWorkload) do(cl *client, rq request, header http.Header) (outcome, bool, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if rq.insert {
		method, body = http.MethodPost, bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(method, w.base+rq.target, body)
	if err != nil {
		return outcome{}, false, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	start := time.Now()
	resp, err := cl.http.Do(req)
	if err != nil {
		return outcome{}, false, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := outcome{latency: time.Since(start), bytes: len(raw)}
	if err != nil {
		return out, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, false, nil
	}
	var rp reply
	if err := json.Unmarshal(raw, &rp); err != nil {
		return out, false, nil
	}
	out.engineMS = rp.Stats.ElapsedMS + rp.ElapsedMS
	got := rp.Pairs
	if got == nil {
		got = rp.Matches
	}
	if rq.insert {
		got = rp.Inserted
	}
	return out, got != nil && *got == rq.want, nil
}

func (w *serveWorkload) round(d time.Duration, tr *tracer) (*roundSamples, error) {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	per := make([]*roundSamples, serveClients)
	acked := make([][]xmldoc.Element, serveClients)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, r := w.clients[c], &roundSamples{}
			per[c] = r
			var l *lane
			if tr != nil {
				l = tr.lanes[c]
				plain := cl.http.Transport
				cl.http.Transport = tracedTransport{plain, l}
				defer func() { cl.http.Transport = plain }()
			}
			for time.Since(start) < d {
				rq, err := w.next(c, cl)
				if err != nil {
					errs[c] = err
					return
				}
				var root int32
				if l != nil {
					root = l.begin(rq.opName())
				}
				out, ok, err := w.do(cl, rq, nil)
				if l != nil {
					// The engine's share is what the server reports as
					// elapsed_ms: it lies somewhere inside the round trip.
					rt := l.spans[l.mark]
					l.aggregateUnder(l.mark, "server.engine (reported)", rt.Start, rt.End, int64(out.engineMS*1e6), 1)
					l.endOp(root)
				}
				if err != nil {
					errs[c] = err
					return
				}
				r.attempted++
				r.storageOps++
				if !ok {
					r.failed++
				}
				r.add("bytes", float64(out.bytes))
				switch {
				case rq.insert:
					r.add("insert_ms", ms(out.latency))
					if ok {
						acked[c] = append(acked[c], rq.els...)
					}
				case rq.query:
					r.side = append(r.side, ms(out.latency))
				default:
					r.lead = append(r.lead, ms(out.latency))
				}
				if !rq.insert {
					r.add("overhead_share", 1-ratio(out.engineMS, ms(out.latency)))
				}
			}
		}(c)
	}
	wg.Wait()
	all := &roundSamples{}
	for c, r := range per {
		if errs[c] != nil {
			return nil, fmt.Errorf("client %d: %w", c, errs[c])
		}
		all.merge(r)
		w.acked = append(w.acked, acked[c]...)
	}
	all.elapsed = time.Since(start)
	return all, nil
}

// tracedTransport records the HTTP round trip (request written → response
// headers read) as a child of the running request span.
type tracedTransport struct {
	next http.RoundTripper
	l    *lane
}

func (t tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id := t.l.begin("http.roundtrip")
	resp, err := t.next.RoundTrip(r)
	t.l.end(id)
	t.l.mark = id
	return resp, err
}

func (w *serveWorkload) counters() counters { return snapshotCounters(w.docStore, w.insStore) }

// serverStats is the part of /api/v1/stats the benchmark reads.
type serverStats struct {
	Server struct {
		Rejected  int64 `json:"rejected"`
		QueueWait struct {
			P99MS float64 `json:"p99_ms"`
		} `json:"queue_wait"`
	} `json:"server"`
}

func (w *serveWorkload) finish() (*roundSamples, error) {
	defer w.teardown()
	r := &roundSamples{}
	resp, err := w.clients[0].http.Get(w.base + "/api/v1/stats")
	if err != nil {
		return nil, err
	}
	var st serverStats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	r.add("rejects", float64(st.Server.Rejected))
	r.add("queue_wait_us_p99", st.Server.QueueWait.P99MS*1000)
	if err := w.stopServer(); err != nil {
		return nil, err
	}
	// Every acknowledged insert must be in the tree.
	set, err := w.insStore.OpenSet("employee")
	if err != nil {
		return nil, err
	}
	xr, err := set.XRTree()
	if err != nil {
		return nil, err
	}
	for _, e := range w.acked {
		r.attempted++
		if got, err := xr.Lookup(e.Start, nil); err != nil || got.End != e.End {
			r.failed++
		}
	}
	r.attempted++
	if err := xr.CheckInvariants(); err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "serve_mixed: invariants after the run:", err)
	}
	if err := w.insStore.Close(); err != nil {
		return nil, err
	}
	w.insStore = nil
	return r, nil
}

func (w *serveWorkload) stopServer() error {
	if w.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if serr := <-w.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	w.srv = nil
	for _, cl := range w.clients {
		cl.http.CloseIdleConnections()
	}
	return err
}

func (w *serveWorkload) teardown() {
	w.stopServer()
	if w.docStore != nil {
		w.docStore.Close()
		w.docStore = nil
	}
	if w.insStore != nil {
		w.insStore.Abandon()
		w.insStore = nil
	}
	os.RemoveAll(w.dir)
}

// reads returns the latencies of r's join and query requests.
func reads(r *roundSamples) []float64 {
	return append(append([]float64(nil), r.lead...), r.side...)
}

func (w *serveWorkload) named(r *roundSamples, _ counters) map[string]float64 {
	rd := sortedCopy(reads(r))
	return map[string]float64{
		"req_per_s":         float64(r.storageOps) / r.elapsed.Seconds(),
		"req_ms_p50":        quantile(rd, 0.50),
		"req_ms_p99":        quantile(rd, 0.99),
		"insert_req_ms_p50": median(r.extra["insert_ms"]),
	}
}

func (w *serveWorkload) layerMetrics(plain, _ *roundSamples, _ *tracer, _ counters, out map[string]float64) map[string]float64 {
	out["server.overhead_share"] = median(plain.extra["overhead_share"])
	out["server.encode_bytes_per_req"] = mean(plain.extra["bytes"])
	out["server.queue_wait_us_p99"] = mean(plain.extra["queue_wait_us_p99"])
	out["server.rejects"] = mean(plain.extra["rejects"])
	reads := reads(plain)
	return map[string]float64{
		"join+query: handler without TCP (server.handler_us_p50)": ratio(out["server.handler_us_p50"]/1e3, median(reads)),
		"query: path evaluation (pathexpr.eval_ms_p50)":           ratio(out["pathexpr.eval_ms_p50"], median(plain.side)),
	}
}

// --- ladder -----------------------------------------------------------------

// readMix prepares n read requests of the seeded mix.
func (w *serveWorkload) readMix(n int) []request {
	cl := &client{rng: rand.New(rand.NewSource(w.seed + 99))}
	var out []request
	for len(out) < n {
		rq, err := w.next(0, cl)
		if err == nil && !rq.insert {
			out = append(out, rq)
		}
	}
	return out
}

func (w *serveWorkload) ladder(out map[string]float64) error {
	// pathexpr: parsing the eight expressions, and evaluating them over
	// document subsets through the same Collection call the handler makes.
	var err error
	if out["pathexpr.parse_ns"], err = nsPerCall(20000, func(i int) error {
		_, err := pathexpr.Parse(serveQueries[i%len(serveQueries)])
		return err
	}); err != nil {
		return err
	}
	coll := w.docStore.NewCollection()
	for _, d := range w.docs {
		if err := coll.Add(d); err != nil {
			return err
		}
	}
	for _, expr := range serveQueries { // builds this collection's indexes
		if _, err := coll.QueryDocs(expr, nil, nil); err != nil {
			return err
		}
	}
	var evalMS []float64
	for i := 0; i < iters(800); i++ {
		first := uint32(i%(len(w.docs)-docsPerRequest+1)) + 1
		keep := func(id uint32) bool { return id >= first && id < first+docsPerRequest }
		start := time.Now()
		if _, err := coll.QueryDocs(serveQueries[i%len(serveQueries)], keep, nil); err != nil {
			return err
		}
		evalMS = append(evalMS, float64(time.Since(start).Nanoseconds())/1e6)
	}
	out["pathexpr.eval_ms_p50"] = median(evalMS)

	// The handler without TCP: the read mix through httptest recorders.
	mix := w.readMix(iters(500))
	h := w.srv.Handler()
	var us []float64
	for _, rq := range mix {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, rq.target, nil)
		start := time.Now()
		h.ServeHTTP(rec, req)
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler returned %d for %s", rec.Code, rq.target)
		}
	}
	out["server.handler_us_p50"] = median(us)

	// Request tracing: the same requests with and without a sampled
	// traceparent header, alternating.
	cl := w.clients[0]
	traced := http.Header{"Traceparent": {"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"}}
	var on, off []float64
	for _, rq := range mix {
		for _, hdr := range []http.Header{nil, traced} {
			o, ok, err := w.do(cl, rq, hdr)
			if err != nil || !ok {
				return fmt.Errorf("trace-overhead request failed: ok=%v err=%v", ok, err)
			}
			if hdr == nil {
				off = append(off, float64(o.latency.Nanoseconds()))
			} else {
				on = append(on, float64(o.latency.Nanoseconds()))
			}
		}
	}
	out["obs.trace_overhead_ratio"] = ratio(median(on), median(off))
	if err := ladderParse(w.seed, out); err != nil {
		return err
	}
	if err := ladderBulkLoad(w.dir, w.insSet, out); err != nil {
		return err
	}
	return w.ladderRouter(out)
}

// subTimer times the router's sub-requests from the client side of the
// coordinator's HTTP client.
type subTimer struct {
	next http.RoundTripper
	mu   sync.Mutex
	subs []time.Duration // sub-request durations since the last drain
}

func (s *subTimer) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := s.next.RoundTrip(r)
	if err == nil && r.URL.Path != "/healthz" && r.URL.Path != "/api/v1/backends" {
		// The coordinator reads the body right after; headers-in is what
		// can be timed from here.
		s.mu.Lock()
		s.subs = append(s.subs, time.Since(start))
		s.mu.Unlock()
	}
	return resp, err
}

func (s *subTimer) drain() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.subs
	s.subs = nil
	return out
}

// ladderRouter sends the read requests through server.NewRouter over two
// in-process shards that split the documents. The router gathers over the
// whole fleet (it does not forward docs=), so the requests name every
// document. A hop is the router's latency minus its slowest sub-request.
func (w *serveWorkload) ladderRouter(out map[string]float64) error {
	half := uint32(len(w.docs) / 2)
	var shards []*httptest.Server
	var stores []*xrtree.Store
	defer func() {
		for _, s := range shards {
			s.Close()
		}
		for _, s := range stores {
			s.Close()
		}
	}()
	spec := make([]cluster.ShardSpec, 2)
	for i := range spec {
		lo, hi := uint32(1), half
		if i == 1 {
			lo, hi = half+1, uint32(len(w.docs))
		}
		st, err := xrtree.NewMemStore(xrtree.StoreOptions{BufferPages: 8192})
		if err != nil {
			return err
		}
		stores = append(stores, st)
		name := string(rune('a' + i))
		s := server.New(server.Config{ShardName: name, Owns: func(id uint32) bool { return id >= lo && id <= hi }})
		if err := s.AddDocuments("docs", st, w.docs[lo-1:hi]...); err != nil {
			return err
		}
		ts := httptest.NewServer(s.Handler())
		shards = append(shards, ts)
		spec[i] = cluster.ShardSpec{Name: name, Addr: ts.URL, Lo: lo, Hi: hi, HasRange: true}
	}
	timer := &subTimer{next: &http.Transport{MaxIdleConnsPerHost: 4}}
	// Hedging would add sub-requests of its own; keep it out of the hop.
	co, err := cluster.New(&cluster.Config{Shards: spec}, cluster.Options{
		Client: &http.Client{Transport: timer}, HedgeAfter: 30 * time.Second, SubTimeout: 30 * time.Second,
	})
	if err != nil {
		return err
	}
	co.Start()
	defer co.Close()
	router := httptest.NewServer(server.NewRouter(server.Config{}, co).Handler())
	defer router.Close()

	saved := w.base
	w.base = router.URL
	defer func() { w.base = saved }()
	cl := &client{http: router.Client()}
	all := make([]uint32, len(w.docs))
	for i := range all {
		all[i] = uint32(i + 1)
	}
	var mix []request
	for i := 0; i < iters(48); i++ {
		mix = append(mix, w.joinRequest(i%len(serveJoins), all), w.queryRequest(i%len(serveQueries), all))
	}
	var hops, subs []float64
	for pass := 0; pass < 2; pass++ { // the first pass builds the shards' indexes
		hops, subs = hops[:0], subs[:0]
		for _, rq := range mix {
			timer.drain()
			o, ok, err := w.do(cl, rq, nil)
			if err != nil || !ok {
				return fmt.Errorf("router request %s: ok=%v err=%v", rq.target, ok, err)
			}
			var slowest time.Duration
			ds := timer.drain()
			for _, d := range ds {
				slowest = max(slowest, d)
			}
			hops = append(hops, float64((o.latency-slowest).Nanoseconds())/1e6)
			subs = append(subs, float64(len(ds)))
		}
	}
	out["cluster.hop_ms_p50"] = median(hops)
	out["cluster.subrequests_per_req"] = mean(subs)
	return nil
}
