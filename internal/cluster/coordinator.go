package cluster

// The scatter-gather coordinator: the router-side engine behind
// /api/v1/join and /api/v1/query in cluster mode.
//
// A request decomposes by the placement function into "runs" — maximal
// stretches of the global DocId-sorted document list owned by the same
// shard — and each run becomes one join.Task fetching that shard's
// sub-join over exactly those documents. The tasks then flow through
// join.Parallel, the same ordered merge that backs single-node parallel
// joins: task order is ascending DocId, so the merged stream is
// byte-identical to the single-node join over the union of the fleet's
// documents (the equivalence the router tests assert).
//
// Failure handling is per-request: with the partial-result policy on, a
// failed shard's documents drop out and the response carries the shard in
// shards_failed; with it off, the first ShardError aborts the gather.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"xrtree/internal/join"
	"xrtree/internal/metrics"
	"xrtree/internal/obs"
	"xrtree/internal/xmldoc"
)

// Options tunes the coordinator's robustness machinery.
type Options struct {
	// SubTimeout bounds each router→shard sub-request (default 5s).
	SubTimeout time.Duration
	// HedgeAfter is a fixed hedge delay; 0 derives the delay from the
	// shard's successful-attempt p99 (see hedge.go).
	HedgeAfter time.Duration
	// HedgeMin / HedgeMax clamp the derived hedge delay (defaults 1ms and
	// 500ms); HedgeMax is also the cold-start delay before enough samples.
	HedgeMin time.Duration
	HedgeMax time.Duration
	// Fanout is the number of concurrent sub-requests (default 8).
	Fanout int
	// ProbeInterval / ProbeTimeout drive the /healthz poller (default
	// 500ms; timeout defaults to the interval).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// InventoryTTL caches each shard's /api/v1/backends document inventory
	// (default 2s); membership is static, so staleness only delays seeing
	// newly loaded documents.
	InventoryTTL time.Duration
	// Client is the HTTP client for probes and sub-requests.
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.SubTimeout <= 0 {
		o.SubTimeout = 5 * time.Second
	}
	if o.HedgeMin <= 0 {
		o.HedgeMin = time.Millisecond
	}
	if o.HedgeMax <= 0 {
		o.HedgeMax = 500 * time.Millisecond
	}
	if o.HedgeMax < o.HedgeMin {
		o.HedgeMax = o.HedgeMin
	}
	if o.Fanout <= 0 {
		o.Fanout = 8
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = o.ProbeInterval
	}
	if o.InventoryTTL <= 0 {
		o.InventoryTTL = 2 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// BackendInfo is the slice of a shard's /api/v1/backends inventory the
// coordinator consumes, and the router's aggregated re-export of it.
type BackendInfo struct {
	Name      string   `json:"name"`
	Kind      string   `json:"kind"`
	Documents int      `json:"documents,omitempty"`
	DocIDs    []uint32 `json:"doc_ids,omitempty"`
}

type shardState struct {
	spec ShardSpec

	mu      sync.Mutex
	inv     []BackendInfo
	fetched time.Time
}

// Coordinator owns the router's view of the fleet: placement ring, health
// prober, per-shard metrics, and the scatter-gather execution itself.
type Coordinator struct {
	opt    Options
	cfg    *Config
	ring   *Ring
	met    *Metrics
	probe  *Prober
	client *http.Client
	shards []*shardState
	byName map[string]*shardState
}

// New builds a coordinator over a validated config. An invalid config —
// notably overlapping explicit ownership claims — is refused here, which
// is what keeps a misconfigured router from ever serving double-counted
// results.
func New(cfg *Config, opt Options) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	co := &Coordinator{
		opt:    opt,
		cfg:    cfg,
		ring:   NewRing(cfg),
		met:    NewMetrics(cfg),
		client: opt.Client,
		byName: make(map[string]*shardState, len(cfg.Shards)),
	}
	co.probe = NewProber(cfg, opt.ProbeInterval, opt.ProbeTimeout, co.client, co.met.SetUp)
	for i := range cfg.Shards {
		sh := &shardState{spec: cfg.Shards[i]}
		co.shards = append(co.shards, sh)
		co.byName[sh.spec.Name] = sh
	}
	return co, nil
}

// Start launches the health probe loop.
func (co *Coordinator) Start() { co.probe.Start() }

// Close stops the probe loop and drops idle connections.
func (co *Coordinator) Close() {
	co.probe.Close()
	co.client.CloseIdleConnections()
}

// Metrics exposes the router-side cluster accounting for /metrics.
func (co *Coordinator) Metrics() *Metrics { return co.met }

// Ring exposes the placement function (used by tests and status).
func (co *Coordinator) Ring() *Ring { return co.ring }

// inventory returns the shard's backend inventory, from the TTL cache when
// fresh. A failed fetch falls back to any stale cache — membership is
// static, so an old inventory is still a correct document list — and only
// errors when the shard has never answered.
func (co *Coordinator) inventory(ctx context.Context, sh *shardState) ([]BackendInfo, error) {
	sh.mu.Lock()
	if sh.inv != nil && time.Since(sh.fetched) < co.opt.InventoryTTL {
		inv := sh.inv
		sh.mu.Unlock()
		return inv, nil
	}
	sh.mu.Unlock()

	list, err := co.fetchBackends(ctx, sh.spec.Addr)
	if err != nil {
		sh.mu.Lock()
		stale := sh.inv
		sh.mu.Unlock()
		if stale != nil {
			return stale, nil
		}
		return nil, err
	}
	sh.mu.Lock()
	sh.inv = list
	sh.fetched = time.Now()
	sh.mu.Unlock()
	return list, nil
}

func (co *Coordinator) fetchBackends(ctx context.Context, addr string) ([]BackendInfo, error) {
	ictx, cancel := context.WithTimeout(ctx, co.opt.SubTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ictx, http.MethodGet, addr+"/api/v1/backends", nil)
	if err != nil {
		return nil, err
	}
	resp, err := co.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("backends fetch: HTTP %d", resp.StatusCode)
	}
	var wrap struct {
		Backends []BackendInfo `json:"backends"`
	}
	if err := json.Unmarshal(body, &wrap); err != nil {
		return nil, fmt.Errorf("backends fetch: %w", err)
	}
	return wrap.Backends, nil
}

// Backends aggregates the fleet's inventory for the router's own
// /api/v1/backends: per backend name, the union of owned documents.
func (co *Coordinator) Backends(ctx context.Context) []BackendInfo {
	agg := make(map[string]*BackendInfo)
	var order []string
	for _, sh := range co.shards {
		inv, err := co.inventory(ctx, sh)
		if err != nil {
			continue
		}
		for _, b := range inv {
			e := agg[b.Name]
			if e == nil {
				e = &BackendInfo{Name: b.Name, Kind: b.Kind}
				agg[b.Name] = e
				order = append(order, b.Name)
			}
			for _, id := range b.DocIDs {
				if owner, ok := co.ring.Owner(id); ok && owner == sh.spec.Name {
					e.DocIDs = append(e.DocIDs, id)
				}
			}
		}
	}
	sort.Strings(order)
	out := make([]BackendInfo, 0, len(order))
	for _, name := range order {
		e := agg[name]
		sort.Slice(e.DocIDs, func(i, j int) bool { return e.DocIDs[i] < e.DocIDs[j] })
		e.Documents = len(e.DocIDs)
		out = append(out, *e)
	}
	return out
}

// Status is the router's live fleet view, served on /api/v1/cluster. Docs
// counts come from the inventory cache; they are 0 until first use.
func (co *Coordinator) Status() Status {
	st := Status{Degraded: co.met.degraded.Load()}
	for _, sh := range co.shards {
		name := sh.spec.Name
		owned := make(map[uint32]bool)
		sh.mu.Lock()
		for _, b := range sh.inv {
			for _, id := range b.DocIDs {
				if owner, ok := co.ring.Owner(id); ok && owner == name {
					owned[id] = true
				}
			}
		}
		sh.mu.Unlock()
		sm := co.met.perShard[name]
		st.Shards = append(st.Shards, ShardStatus{
			Name:        name,
			Addr:        sh.spec.Addr,
			Replica:     sh.spec.Replica,
			Up:          sm.up.Load(),
			Docs:        len(owned),
			Subrequests: sm.subs.Load(),
			Failures:    sm.failures.Load(),
			Hedges:      sm.hedges.Load(),
			Retries:     sm.retries.Load(),
			Latency:     summarize(&sm.lat),
		})
		st.Docs += len(owned)
	}
	return st
}

// Request is one scatter-gather request as seen by the coordinator. Params
// carries the already-validated, whitelisted query parameters to forward.
type Request struct {
	Kind    string // "join" or "query"
	Backend string // empty infers the unique document backend of the fleet
	Params  url.Values
	Limit   int  // sample cap; also forwarded as the sub-request limit
	Partial bool // degrade on shard failure instead of failing the request
	TraceID obs.TraceID
	Traced  bool
}

// Result is the merged outcome of one scatter-gather request. For joins,
// Pairs holds (ancestor, descendant) samples; for queries, only Pair.A is
// meaningful. The stream is in document order and byte-identical to the
// single-node result over the union of the healthy shards' documents.
type Result struct {
	Backend      string
	Pairs        []join.Pair
	Total        int64 // pairs (or matches) across the fleet, pre-limit
	Truncated    bool
	Stats        metrics.Counters
	Docs         int // documents placed for this request
	Runs         int // contiguous same-shard stretches = sub-requests sent
	Shards       int // distinct shards asked
	ShardsFailed []string
	Hedges       int64
	Retries      int64
}

type subPair struct {
	Anc  xmldoc.Element `json:"anc"`
	Desc xmldoc.Element `json:"desc"`
}

type subStats struct {
	ElementsScanned int64 `json:"elements_scanned"`
	IndexNodeReads  int64 `json:"index_node_reads"`
	LeafReads       int64 `json:"leaf_reads"`
	StabPageReads   int64 `json:"stab_page_reads"`
}

func (s subStats) addTo(c *metrics.Counters) {
	c.ElementsScanned += s.ElementsScanned
	c.IndexNodeReads += s.IndexNodeReads
	c.LeafReads += s.LeafReads
	c.StabPageReads += s.StabPageReads
}

type subJoinResponse struct {
	Pairs  int64     `json:"pairs"`
	Sample []subPair `json:"sample"`
	Stats  subStats  `json:"stats"`
}

type subQueryResponse struct {
	Matches int              `json:"matches"`
	Sample  []xmldoc.Element `json:"sample"`
	Stats   subStats         `json:"stats"`
}

// decodeInto replays one shard response into the ordered merge: sample
// pairs go to emit (the driver serializes them into document order), and
// the shard's counts fold into the task-local counters.
func decodeInto(kind string, body []byte, emit join.EmitFunc, c *metrics.Counters) error {
	switch kind {
	case "query":
		var r subQueryResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("cluster: bad shard query response: %w", err)
		}
		for _, el := range r.Sample {
			emit(el, xmldoc.Element{})
		}
		c.OutputPairs += int64(r.Matches)
		r.Stats.addTo(c)
		return nil
	default:
		var r subJoinResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("cluster: bad shard join response: %w", err)
		}
		for _, p := range r.Sample {
			emit(p.Anc, p.Desc)
		}
		c.OutputPairs += r.Pairs
		r.Stats.addTo(c)
		return nil
	}
}

// Gather executes one scatter-gather request and merges the sub-results in
// document order. tracer (may be nil) receives the request's EvCluster*
// events and, when it is a span tracer, per-run sub-request spans whose
// ids ride the outgoing traceparent headers.
func (co *Coordinator) Gather(ctx context.Context, req *Request, tracer obs.Tracer) (*Result, error) {
	var path string
	switch req.Kind {
	case "join":
		path = "/api/v1/join"
	case "query":
		path = "/api/v1/query"
	default:
		//xrvet:errclass-ok request validation maps to 400, not a shard 502
		return nil, fmt.Errorf("cluster: unknown request kind %q", req.Kind)
	}

	var mu sync.Mutex
	failed := make(map[string]bool)

	// Inventory every shard; a shard that has never answered is failed for
	// this request (its documents cannot be placed).
	invs := make(map[*shardState][]BackendInfo, len(co.shards))
	for _, sh := range co.shards {
		inv, err := co.inventory(ctx, sh)
		if err != nil {
			if !req.Partial {
				return nil, &ShardError{Shard: sh.spec.Name, Err: err, Retriable: true}
			}
			failed[sh.spec.Name] = true
			continue
		}
		invs[sh] = inv
	}

	backend := req.Backend
	if backend == "" {
		names := make(map[string]bool)
		for _, inv := range invs {
			for _, b := range inv {
				if b.Kind == "documents" {
					names[b.Name] = true
				}
			}
		}
		if len(names) != 1 {
			//xrvet:errclass-ok ambiguous backend is a client-side request error (400)
			return nil, fmt.Errorf("cluster: cannot infer backend (%d document backends in fleet); pass backend=", len(names))
		}
		for n := range names {
			backend = n
		}
	}

	// The ownership-filtered global document list, sorted by DocId. Each
	// document appears once: the ring names exactly one owner and only the
	// owner's copy is used, so replicated or mis-loaded copies elsewhere
	// cannot double-count.
	type docOwner struct {
		id uint32
		sh *shardState
	}
	var docs []docOwner
	for sh, inv := range invs {
		for _, b := range inv {
			if b.Name != backend {
				continue
			}
			for _, id := range b.DocIDs {
				if owner, ok := co.ring.Owner(id); ok && owner == sh.spec.Name {
					docs = append(docs, docOwner{id: id, sh: sh})
				}
			}
		}
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].id < docs[j].id })

	// Runs: maximal stretches of the sorted list on the same shard. One
	// sub-request per run, pinned via docs= to exactly the run's DocIds.
	type run struct {
		sh  *shardState
		ids []uint32
	}
	var runs []run
	for _, d := range docs {
		if n := len(runs); n > 0 && runs[n-1].sh == d.sh {
			runs[n-1].ids = append(runs[n-1].ids, d.id)
			continue
		}
		runs = append(runs, run{sh: d.sh, ids: []uint32{d.id}})
	}

	base := url.Values{}
	for k, vs := range req.Params {
		base[k] = vs
	}
	base.Set("backend", backend)
	if req.Limit > 0 {
		base.Set("limit", strconv.Itoa(req.Limit))
	}
	base.Set("timeout", co.opt.SubTimeout.String())

	res := &Result{Backend: backend, Docs: len(docs), Runs: len(runs)}
	emit := func(a, d xmldoc.Element) {
		if req.Limit <= 0 || len(res.Pairs) < req.Limit {
			res.Pairs = append(res.Pairs, join.Pair{A: a, D: d})
		}
	}
	rec := &reqRecorder{}

	tasks := make([]join.Task, len(runs))
	for i := range runs {
		r := runs[i]
		q := url.Values{}
		for k, vs := range base {
			q[k] = vs
		}
		q.Set("docs", FormatDocSet(r.ids))
		pathQuery := path + "?" + q.Encode()
		tasks[i] = join.Task{DocID: r.ids[0], Run: func(emit join.EmitFunc, c *metrics.Counters) error {
			tp := ""
			if req.Traced {
				// The driver gave this task its own span; its id on the
				// wire makes the shard's server-side trace a child of this
				// router request.
				if sp, ok := c.Tracer.(*obs.Span); ok {
					tp = obs.Traceparent(req.TraceID, sp.ID(), true)
				}
			}
			tctx := c.Ctx
			if tctx == nil {
				tctx = ctx
			}
			body, err := co.exec(tctx, r.sh.spec, pathQuery, tp, c, rec)
			if err != nil {
				mu.Lock()
				failed[r.sh.spec.Name] = true
				mu.Unlock()
				if req.Partial {
					return nil
				}
				return err
			}
			if derr := decodeInto(req.Kind, body, emit, c); derr != nil {
				// A malformed response is a shard failure, not a client
				// error: it must cross the boundary typed so the router
				// answers 502, and it must honor the partial-result
				// policy like any other failed shard.
				mu.Lock()
				failed[r.sh.spec.Name] = true
				mu.Unlock()
				if req.Partial {
					return nil
				}
				return &ShardError{Shard: r.sh.spec.Name, Err: derr}
			}
			return nil
		}}
	}

	st := metrics.Counters{Tracer: tracer, Ctx: ctx}
	start := time.Now()
	if err := join.Parallel(tasks, join.Options{Workers: co.opt.Fanout}, emit, &st); err != nil {
		return nil, err
	}
	st.Elapsed = time.Since(start)

	res.Total = st.OutputPairs
	res.Truncated = res.Total > int64(len(res.Pairs))
	res.Stats = st
	shardSet := make(map[string]bool)
	for _, r := range runs {
		shardSet[r.sh.spec.Name] = true
	}
	res.Shards = len(shardSet)
	for name := range failed {
		res.ShardsFailed = append(res.ShardsFailed, name)
	}
	sort.Strings(res.ShardsFailed)
	res.Hedges = rec.hedges.Load()
	res.Retries = rec.retries.Load()
	if len(res.ShardsFailed) > 0 {
		co.met.Degraded(len(res.ShardsFailed))
		if tracer != nil {
			tracer.Event(obs.EvClusterDegraded, int64(len(res.ShardsFailed)))
		}
	}
	return res, nil
}
