package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"xrtree"
	"xrtree/internal/cluster"
	"xrtree/internal/obs"
)

// Config tunes the serving layer. The zero value selects the defaults
// noted on each field.
type Config struct {
	// MaxConcurrent is the number of requests that may execute at once
	// (default 8).
	MaxConcurrent int
	// MaxQueue bounds the admission wait queue: 0 selects 2×MaxConcurrent,
	// negative disables queuing entirely (saturation → immediate 429).
	MaxQueue int
	// DefaultTimeout applies to requests that name no ?timeout (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the ?timeout a request may ask for (default 60s).
	MaxTimeout time.Duration
	// Workers is the default parallel-join worker count for collection
	// backends when the request names no ?workers (default 1).
	Workers int
	// DefaultLimit caps the result sample returned per request when the
	// request names no ?limit (default 10).
	DefaultLimit int
	// TraceSample is the head-based trace-sampling rate in [0, 1] for
	// requests arriving without a sampled traceparent header (default 0:
	// only explicitly sampled requests are traced).
	TraceSample float64
	// TraceBuffer is the flight recorder's main ring capacity (default 64,
	// rounded up to a power of two).
	TraceBuffer int
	// TracePinned is the slow-trace ring capacity (default 16).
	TracePinned int
	// SlowTrace pins recorded traces at or above this duration into the
	// slow ring (default 0: pinning disabled).
	SlowTrace time.Duration
	// TraceSeed seeds the sampler and id generator; 0 draws random seeds.
	// A fixed seed makes the sampling decision sequence deterministic for
	// tests.
	TraceSeed uint64
	// ShardName identifies this node when it serves as one shard of a
	// cluster; it only labels errors and logs, enforcement is Owns.
	ShardName string
	// Owns, when non-nil, restricts document backends to the DocIds this
	// shard owns under the cluster placement: unowned documents are
	// invisible to joins, queries and the /api/v1/backends inventory, and
	// a docs= request explicitly naming a present-but-unowned document is
	// refused with 421 Misdirected Request.
	Owns func(docID uint32) bool
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.DefaultLimit <= 0 {
		c.DefaultLimit = 10
	}
	if c.TraceBuffer <= 0 {
		c.TraceBuffer = 64
	}
	if c.TracePinned <= 0 {
		c.TracePinned = 16
	}
	return c
}

// backend is one named query target: either a catalogued store (two-step
// joins over persisted sets) or a document collection (joins plus path
// expressions, lazily indexed).
type backend struct {
	name  string
	store *xrtree.Store
	coll  *xrtree.Collection

	mu    sync.Mutex
	sets  map[string]*xrtree.ElementSet // store-backed handles, opened once
	names []string                      // catalogued set names (store kind)
	tags  []string                      // document tags (collection kind)
}

func (b *backend) kind() string {
	if b.coll != nil {
		return "documents"
	}
	return "store"
}

// set returns the catalogued element set for tag, opening and caching the
// handle on first use. Concurrent joins over one cached set are safe: the
// index structures are immutable and page access is latched in the pool.
func (b *backend) set(tag string) (*xrtree.ElementSet, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if set, ok := b.sets[tag]; ok {
		return set, nil
	}
	set, err := b.store.OpenSet(tag)
	if err != nil {
		return nil, &httpError{http.StatusNotFound, fmt.Sprintf("backend %q has no set %q", b.name, tag)}
	}
	b.sets[tag] = set
	return set, nil
}

// Server is the HTTP query server: named backends, an admission-controlled
// API, and serving metrics. Create with New, register backends, then
// Serve; Shutdown drains in-flight requests.
type Server struct {
	cfg     Config
	lim     *Limiter
	met     *Metrics
	hs      *http.Server
	mux     *http.ServeMux
	rec     *obs.FlightRecorder
	ids     *obs.IDSource
	sampler *obs.Sampler
	coord   *cluster.Coordinator // non-nil in router mode (NewRouter)

	mu       sync.RWMutex
	backends map[string]*backend
	order    []string
}

// New creates a server with no backends.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg.withDefaults(),
		met:      NewMetrics(),
		backends: make(map[string]*backend),
	}
	s.lim = NewLimiter(s.cfg.MaxConcurrent, s.cfg.MaxQueue)
	s.ids = obs.NewIDSource(s.cfg.TraceSeed)
	s.sampler = obs.NewSampler(s.cfg.TraceSample, s.cfg.TraceSeed)
	s.rec = obs.NewFlightRecorder(s.cfg.TraceBuffer, s.cfg.TracePinned)
	s.rec.SetSlowThreshold(s.cfg.SlowTrace)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /api/v1/backends", s.handleBackends)
	s.mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("GET /api/v1/join", s.admit(s.handleJoin))
	s.mux.Handle("GET /api/v1/query", s.admit(s.handleQuery))
	s.mux.Handle("POST /api/v1/insert", s.admit(s.handleInsert))
	s.hs = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	return s
}

// Recorder exposes the flight recorder (for tests and embedding).
func (s *Server) Recorder() *obs.FlightRecorder { return s.rec }

// AddStore registers a catalogued store under name: its persisted sets
// become join operands. Backends must be registered before Serve.
func (s *Server) AddStore(name string, st *xrtree.Store) error {
	names, err := st.SetNames()
	if err != nil {
		return fmt.Errorf("server: backend %q: %w", name, err)
	}
	sort.Strings(names)
	return s.add(&backend{name: name, store: st, sets: make(map[string]*xrtree.ElementSet), names: names})
}

// AddDocuments registers a document collection under name: joins run per
// document with the DocId condition, and path-expression queries are
// available. Tag indexes build lazily on first use.
func (s *Server) AddDocuments(name string, st *xrtree.Store, docs ...*xrtree.Document) error {
	if len(docs) == 0 {
		return fmt.Errorf("server: backend %q: no documents", name)
	}
	// Ascending DocId is the emit order of every collection join and the
	// document order the cluster router's merge assumes; sorting here makes
	// it hold regardless of registration order.
	sort.Slice(docs, func(i, j int) bool { return docs[i].DocID < docs[j].DocID })
	coll := st.NewCollection()
	tagSet := make(map[string]struct{})
	for _, d := range docs {
		if err := coll.Add(d); err != nil {
			return fmt.Errorf("server: backend %q: %w", name, err)
		}
		for _, t := range d.Tags() {
			tagSet[t] = struct{}{}
		}
	}
	tags := make([]string, 0, len(tagSet))
	for t := range tagSet {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	return s.add(&backend{name: name, store: st, coll: coll, tags: tags})
}

func (s *Server) add(b *backend) error {
	if b.name == "" {
		return errors.New("server: backend name must be non-empty")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.backends[b.name]; dup {
		return fmt.Errorf("server: duplicate backend %q", b.name)
	}
	s.backends[b.name] = b
	s.order = append(s.order, b.name)
	return nil
}

// backend resolves the ?backend parameter; an empty name selects the sole
// backend when exactly one is registered.
func (s *Server) backend(name string) (*backend, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		if len(s.order) == 1 {
			return s.backends[s.order[0]], nil
		}
		return nil, badRequest("backend parameter required (%d backends registered)", len(s.order))
	}
	b, ok := s.backends[name]
	if !ok {
		return nil, &httpError{http.StatusNotFound, fmt.Sprintf("unknown backend %q", name)}
	}
	return b, nil
}

// Handler returns the server's HTTP handler, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like http.Server.Serve.
func (s *Server) Serve(ln net.Listener) error { return s.hs.Serve(ln) }

// Shutdown gracefully drains the server: the listener closes immediately,
// in-flight requests run to completion (engine deadlines still apply),
// and new arrivals are refused at the socket. ctx bounds the drain.
func (s *Server) Shutdown(ctx context.Context) error { return s.hs.Shutdown(ctx) }

// httpError carries a status code through the handler error path.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // header already sent; a broken client connection is not actionable
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg, Status: code})
}

// apiFunc is an admitted handler: it returns nil after writing a 2xx
// response, or an error that admit maps to an HTTP status (httpError →
// its code, context errors → 503, anything else → 500).
type apiFunc func(w http.ResponseWriter, r *http.Request) error

// admit wraps an apiFunc with the admission policy: parse and apply the
// request deadline, acquire an execution slot (bounded queue, 429 on
// overflow, 503 on deadline-in-queue), record queue wait and latency, and
// translate handler errors. This is the single chokepoint every query
// request passes through.
func (s *Server) admit(fn apiFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrive := time.Now()
		timeout, err := parseTimeout(r.URL.Query().Get("timeout"), s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
		if err != nil {
			s.met.Failed()
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		tr := s.startTrace(w, r)
		if tr != nil {
			ctx = context.WithValue(ctx, traceKey{}, tr)
		}
		s.met.Arrived(s.lim.Waiting())
		if err := s.lim.Acquire(ctx); err != nil {
			switch {
			case errors.Is(err, ErrQueueFull):
				s.met.Rejected()
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, "admission queue full")
			case errors.Is(err, context.DeadlineExceeded):
				s.met.TimedOut()
				writeError(w, http.StatusServiceUnavailable, "deadline exceeded while queued")
			default: // client went away while queued; nothing to write
				s.met.Canceled()
			}
			s.finishTrace(tr, time.Since(arrive))
			return
		}
		defer func() {
			s.lim.Release()
			// Completion-side depth sample: sampling only at admission
			// leaves the depth distribution stale after an idle-then-burst
			// phase (the last burst arrival saw a full queue; nothing
			// recorded it draining).
			s.met.QueueDepth(s.lim.Waiting())
		}()
		wait := time.Since(arrive)
		if tr != nil {
			tr.Root().Event(obs.EvServeQueueWait, wait.Nanoseconds())
		}

		err = fn(w, r.WithContext(ctx))
		switch {
		case err == nil:
		case errors.Is(err, context.DeadlineExceeded):
			s.met.TimedOut()
			writeError(w, http.StatusServiceUnavailable, "deadline exceeded")
		case errors.Is(err, context.Canceled):
			s.met.Canceled()
		default:
			s.met.Failed()
			var he *httpError
			if errors.As(err, &he) {
				writeError(w, he.code, he.msg)
			} else {
				writeError(w, http.StatusInternalServerError, err.Error())
			}
		}
		total := time.Since(arrive)
		s.met.Done(err == nil, wait, total)
		// The root span ends with the identical measurement EvServeSpan
		// records, so the trace and the latency histogram agree exactly.
		s.finishTrace(tr, total)
	})
}

// parseTimeout resolves the ?timeout parameter (a Go duration such as
// "500ms") against the configured default and cap.
func parseTimeout(raw string, def, max time.Duration) (time.Duration, error) {
	if raw == "" {
		return def, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("bad timeout %q: %v", raw, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("timeout must be positive, got %q", raw)
	}
	if d > max {
		d = max
	}
	return d, nil
}

func parseAlg(raw string) (xrtree.Algorithm, error) {
	switch raw {
	case "", "xr", "xrstack":
		return xrtree.AlgXRStack, nil
	case "noindex":
		return xrtree.AlgNoIndex, nil
	case "mpmgjn":
		return xrtree.AlgMPMGJN, nil
	case "bplus", "b+":
		return xrtree.AlgBPlus, nil
	case "bplussp", "b+sp":
		return xrtree.AlgBPlusSP, nil
	default:
		return 0, badRequest("unknown algorithm %q", raw)
	}
}

func parseMode(raw string) (xrtree.Mode, error) {
	switch raw {
	case "", "//", "desc", "descendant", "ad":
		return xrtree.AncestorDescendant, nil
	case "/", "child", "pc":
		return xrtree.ParentChild, nil
	default:
		return 0, badRequest("unknown axis %q (want // or /)", raw)
	}
}

func parseIntParam(raw string, def int, name string) (int, error) {
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, badRequest("bad %s %q: want a non-negative integer", name, raw)
	}
	return n, nil
}

// docFilter resolves the docs= parameter and the shard ownership function
// into a document filter for a collection backend (nil keeps everything).
// With an explicit docs= set, naming a present document this shard does
// not own is a misdirected request (421): the router only pins documents
// to their owner, so a hit here means router and shard disagree about
// placement and silently serving would risk double-counted results.
func (s *Server) docFilter(b *backend, docsParam string) (func(uint32) bool, error) {
	owns := s.cfg.Owns
	if docsParam == "" {
		return owns, nil
	}
	if b.coll == nil {
		return nil, badRequest("docs parameter requires a document backend, %q serves catalogued sets", b.name)
	}
	set, err := cluster.ParseDocSet(docsParam)
	if err != nil {
		return nil, badRequest("bad docs %q: %v", docsParam, err)
	}
	if owns != nil {
		for _, id := range b.coll.DocIDs() {
			if cluster.DocSetContains(set, id) && !owns(id) {
				return nil, &httpError{http.StatusMisdirectedRequest,
					fmt.Sprintf("document %d is present but not owned by shard %q", id, s.cfg.ShardName)}
			}
		}
	}
	return func(id uint32) bool {
		return cluster.DocSetContains(set, id) && (owns == nil || owns(id))
	}, nil
}

// pairJSON is one sampled result pair.
type pairJSON struct {
	Anc  xrtree.Element `json:"anc"`
	Desc xrtree.Element `json:"desc"`
}

// requestStats is the per-request cost digest, mirroring the fields of
// xrquery -stats-json that are attributable to one request. Buffer-pool
// hit/miss counters are store-global under concurrency and reported per
// backend by /api/v1/stats instead.
type requestStats struct {
	ElementsScanned int64   `json:"elements_scanned"`
	IndexNodeReads  int64   `json:"index_node_reads"`
	LeafReads       int64   `json:"leaf_reads"`
	StabPageReads   int64   `json:"stab_page_reads"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// joinResponse is the body of a successful /api/v1/join.
type joinResponse struct {
	Backend   string                `json:"backend"`
	Query     string                `json:"query"`
	Alg       string                `json:"alg"`
	Workers   int                   `json:"workers,omitempty"`
	TraceID   string                `json:"trace_id,omitempty"`
	Pairs     int64                 `json:"pairs"`
	Sample    []pairJSON            `json:"sample,omitempty"`
	Truncated bool                  `json:"truncated,omitempty"`
	Stats     requestStats          `json:"stats"`
	Phases    *xrtree.JoinPhases    `json:"phases,omitempty"`
	Events    *xrtree.TraceSnapshot `json:"events,omitempty"`

	// Cluster-mode fields, set only by the router (omitted on shards and
	// single-node servers, keeping their responses byte-compatible).
	Shards       int      `json:"shards,omitempty"`
	ShardsFailed []string `json:"shards_failed,omitempty"`
	Degraded     bool     `json:"degraded,omitempty"`
	Hedges       int64    `json:"hedges,omitempty"`
	Retries      int64    `json:"retries,omitempty"`
}

// handleJoin runs one structural join: GET /api/v1/join?backend=&anc=&
// desc=&axis=&alg=&workers=&limit=&timeout=&stats=1.
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) error {
	if s.coord != nil {
		return s.routeJoin(w, r)
	}
	q := r.URL.Query()
	b, err := s.backend(q.Get("backend"))
	if err != nil {
		return err
	}
	anc, desc := q.Get("anc"), q.Get("desc")
	if anc == "" || desc == "" {
		return badRequest("anc and desc parameters are required")
	}
	mode, err := parseMode(q.Get("axis"))
	if err != nil {
		return err
	}
	alg, err := parseAlg(q.Get("alg"))
	if err != nil {
		return err
	}
	workers, err := parseIntParam(q.Get("workers"), s.cfg.Workers, "workers")
	if err != nil {
		return err
	}
	limit, err := parseIntParam(q.Get("limit"), s.cfg.DefaultLimit, "limit")
	if err != nil {
		return err
	}
	withStats := q.Get("stats") == "1" || q.Get("stats") == "true"
	keep, err := s.docFilter(b, q.Get("docs"))
	if err != nil {
		return err
	}

	axis := "//"
	if mode == xrtree.ParentChild {
		axis = "/"
	}

	var col *obs.Collector
	st := xrtree.Stats{Ctx: r.Context()}
	if withStats {
		col = obs.NewCollector()
		st.Tracer = col
	}
	// A traced request gets a child span for the engine work; the span
	// chains the stats collector (when present) as the trace's sink, so
	// stats=1 sees the identical event stream either way.
	tr := traceFrom(r.Context())
	var joinSpan *obs.Span
	if tr != nil {
		if col != nil {
			tr.SetSink(col)
		}
		joinSpan = tr.Root().StartSpan("join " + anc + axis + desc + " alg=" + alg.String())
		defer joinSpan.End()
		st.Tracer = joinSpan
	}
	var (
		pairs     int64
		sample    []pairJSON
		truncated bool
	)
	emit := func(a, d xrtree.Element) {
		pairs++
		if len(sample) < limit {
			sample = append(sample, pairJSON{Anc: a, Desc: d})
		} else {
			truncated = true
		}
	}

	start := time.Now()
	if b.coll != nil {
		err = b.coll.ParallelJoin(alg, mode, anc, desc, emit, &st,
			xrtree.ParallelJoinOptions{Workers: workers, Keep: keep})
	} else {
		var a, d *xrtree.ElementSet
		if a, err = b.set(anc); err != nil {
			return err
		}
		if d, err = b.set(desc); err != nil {
			return err
		}
		err = xrtree.Join(alg, mode, a, d, emit, &st)
	}
	if err != nil {
		return err
	}

	resp := joinResponse{
		Backend:   b.name,
		Query:     anc + axis + desc,
		Alg:       alg.String(),
		Pairs:     pairs,
		Sample:    sample,
		Truncated: truncated,
		Stats: requestStats{
			ElementsScanned: st.ElementsScanned,
			IndexNodeReads:  st.IndexNodeReads,
			LeafReads:       st.LeafReads,
			StabPageReads:   st.StabPageReads,
			ElapsedMS:       float64(time.Since(start).Microseconds()) / 1000,
		},
	}
	if b.coll != nil {
		resp.Workers = workers
	}
	if tr != nil {
		resp.TraceID = tr.ID().String()
	}
	if col != nil {
		ph := col.JoinPhases()
		ev := col.Snapshot()
		resp.Phases = &ph
		resp.Events = &ev
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// queryResponse is the body of a successful /api/v1/query.
type queryResponse struct {
	Backend   string           `json:"backend"`
	Path      string           `json:"path"`
	TraceID   string           `json:"trace_id,omitempty"`
	Matches   int              `json:"matches"`
	Sample    []xrtree.Element `json:"sample,omitempty"`
	Truncated bool             `json:"truncated,omitempty"`
	Stats     requestStats     `json:"stats"`

	// Cluster-mode fields, set only by the router.
	Shards       int      `json:"shards,omitempty"`
	ShardsFailed []string `json:"shards_failed,omitempty"`
	Degraded     bool     `json:"degraded,omitempty"`
	Hedges       int64    `json:"hedges,omitempty"`
	Retries      int64    `json:"retries,omitempty"`
}

// handleQuery evaluates a path expression over a document backend:
// GET /api/v1/query?backend=&path=&limit=&timeout=.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	if s.coord != nil {
		return s.routeQuery(w, r)
	}
	q := r.URL.Query()
	b, err := s.backend(q.Get("backend"))
	if err != nil {
		return err
	}
	if b.coll == nil {
		return badRequest("backend %q serves catalogued sets; path queries need a document backend", b.name)
	}
	path := q.Get("path")
	if path == "" {
		return badRequest("path parameter is required")
	}
	limit, err := parseIntParam(q.Get("limit"), s.cfg.DefaultLimit, "limit")
	if err != nil {
		return err
	}
	keep, err := s.docFilter(b, q.Get("docs"))
	if err != nil {
		return err
	}

	st := xrtree.Stats{Ctx: r.Context()}
	tr := traceFrom(r.Context())
	var querySpan *obs.Span
	if tr != nil {
		querySpan = tr.Root().StartSpan("query " + path)
		defer querySpan.End()
		st.Tracer = querySpan
	}
	start := time.Now()
	els, err := b.coll.QueryDocs(path, keep, &st)
	if err != nil {
		var he *httpError
		if errors.As(err, &he) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return err
		}
		return badRequest("path %q: %v", path, err)
	}
	sample := els
	truncated := false
	if len(sample) > limit {
		sample, truncated = sample[:limit], true
	}
	resp := queryResponse{
		Backend:   b.name,
		Path:      path,
		Matches:   len(els),
		Sample:    sample,
		Truncated: truncated,
		Stats: requestStats{
			ElementsScanned: st.ElementsScanned,
			IndexNodeReads:  st.IndexNodeReads,
			LeafReads:       st.LeafReads,
			StabPageReads:   st.StabPageReads,
			ElapsedMS:       float64(time.Since(start).Microseconds()) / 1000,
		},
	}
	if tr != nil {
		resp.TraceID = tr.ID().String()
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// insertRequest is the body of POST /api/v1/insert: elements to add to
// one catalogued set's XR-tree. A zero DocID inherits the set's document.
type insertRequest struct {
	Set      string           `json:"set"`
	Elements []xrtree.Element `json:"elements"`
}

// insertResponse is the body of a successful insert.
type insertResponse struct {
	Backend   string  `json:"backend"`
	Set       string  `json:"set"`
	Inserted  int     `json:"inserted"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// maxInsertBody bounds the insert request body (about 16k elements per
// request at JSON encoding sizes — far above any sane batch).
const maxInsertBody = 1 << 20

// handleInsert adds elements to a catalogued set's XR-tree:
// POST /api/v1/insert?backend=&set= with an insertRequest body. Inserts
// run concurrently with joins and queries over the same set — the tree's
// per-page latching keeps readers flowing during splits — and are
// admission-controlled like every query, so ingest load competes for the
// same execution slots the limiter meters. Inserted elements are visible
// to the XR-tree access path (xr joins, FindAncestors probes); the set's
// catalogued element list and B+-tree are not updated.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) error {
	if s.coord != nil {
		return badRequest("the router does not accept inserts; POST to the shard that owns the document")
	}
	q := r.URL.Query()
	b, err := s.backend(q.Get("backend"))
	if err != nil {
		return err
	}
	if b.coll != nil {
		return badRequest("backend %q serves documents; inserts need a catalogued store backend", b.name)
	}
	var req insertRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxInsertBody)).Decode(&req); err != nil {
		return badRequest("bad insert body: %v", err)
	}
	tag := req.Set
	if tag == "" {
		tag = q.Get("set")
	}
	if tag == "" {
		return badRequest("set parameter (or body field) is required")
	}
	if len(req.Elements) == 0 {
		return badRequest("no elements to insert")
	}
	set, err := b.set(tag)
	if err != nil {
		return err
	}
	xr, err := set.XRTree()
	if err != nil {
		return badRequest("set %q was built without an XR-tree access path", tag)
	}
	docID := set.Elements()[0].DocID
	tr := traceFrom(r.Context())
	if tr != nil {
		span := tr.Root().StartSpan(fmt.Sprintf("insert %d elements into %s", len(req.Elements), tag))
		defer span.End()
	}
	ctx := r.Context()
	start := time.Now()
	inserted := 0
	for _, e := range req.Elements {
		if err := ctx.Err(); err != nil {
			return err
		}
		if e.DocID == 0 {
			e.DocID = docID
		}
		if err := xr.Insert(e); err != nil {
			// Earlier elements of the batch stay inserted; the count in the
			// error lets the client account for them.
			return badRequest("element %d of %d: %v", inserted+1, len(req.Elements), err)
		}
		inserted++
	}
	writeJSON(w, http.StatusOK, insertResponse{
		Backend:   b.name,
		Set:       tag,
		Inserted:  inserted,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	})
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// backendInfo is one entry of /api/v1/backends. In shard mode, Documents
// and DocIDs cover only the documents this shard owns: the inventory is
// the router's placement input, so advertising unowned copies would make
// the router ask for documents the shard will refuse.
type backendInfo struct {
	Name      string   `json:"name"`
	Kind      string   `json:"kind"` // "store" or "documents"
	Sets      []string `json:"sets,omitempty"`
	Tags      []string `json:"tags,omitempty"`
	Documents int      `json:"documents,omitempty"`
	DocIDs    []uint32 `json:"doc_ids,omitempty"`
}

func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	if s.coord != nil {
		s.clusterBackends(w, r)
		return
	}
	s.mu.RLock()
	infos := make([]backendInfo, 0, len(s.order))
	for _, name := range s.order {
		b := s.backends[name]
		info := backendInfo{Name: b.name, Kind: b.kind(), Sets: b.names, Tags: b.tags}
		if b.coll != nil {
			ids := b.coll.DocIDs()
			if owns := s.cfg.Owns; owns != nil {
				owned := make([]uint32, 0, len(ids))
				for _, id := range ids {
					if owns(id) {
						owned = append(owned, id)
					}
				}
				ids = owned
			}
			info.Documents = len(ids)
			info.DocIDs = ids
		}
		infos = append(infos, info)
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, struct {
		Backends []backendInfo `json:"backends"`
	}{infos})
}

// poolJSON is the store-global buffer-pool digest of one backend.
type poolJSON struct {
	BufferHits     int64 `json:"buffer_hits"`
	BufferMisses   int64 `json:"buffer_misses"`
	PhysicalReads  int64 `json:"physical_reads"`
	PhysicalWrites int64 `json:"physical_writes"`
	PageEvictions  int64 `json:"page_evictions"`
	PinnedPages    int   `json:"pinned_pages"`
}

// backendStats is one backend's entry in /api/v1/stats. PinnedPages is
// the live pin count — 0 on a quiesced server; the smoke test asserts
// that canceled queries leave it there.
type backendStats struct {
	Name string   `json:"name"`
	Kind string   `json:"kind"`
	Pool poolJSON `json:"pool"`
}

// statsResponse is the body of /api/v1/stats.
type statsResponse struct {
	Server   MetricsSnapshot `json:"server"`
	Backends []backendStats  `json:"backends"`
}

func (s *Server) statsSnapshot() statsResponse {
	s.mu.RLock()
	backends := make([]backendStats, 0, len(s.order))
	for _, name := range s.order {
		b := s.backends[name]
		ps := b.store.PoolStats()
		backends = append(backends, backendStats{
			Name: b.name,
			Kind: b.kind(),
			Pool: poolJSON{
				BufferHits:     ps.BufferHits,
				BufferMisses:   ps.BufferMisses,
				PhysicalReads:  ps.PhysicalReads,
				PhysicalWrites: ps.PhysicalWrites,
				PageEvictions:  ps.PageEvictions,
				PinnedPages:    b.store.PinnedPages(),
			},
		})
	}
	s.mu.RUnlock()
	return statsResponse{
		Server:   s.met.Snapshot(s.lim.InFlight(), s.lim.Waiting()),
		Backends: backends,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}
