package server

// Router mode: the same HTTP surface, backed by a cluster coordinator
// instead of local backends. /api/v1/join and /api/v1/query fan out to the
// owning shards and stream-merge the sub-results in document order, so a
// router response is byte-compatible with a single-node response over the
// union of the fleet's documents — plus the cluster-only fields (shards,
// shards_failed, degraded, hedges, retries). Requests pass the same
// admission chokepoint as local ones: concurrency limits and deadlines
// protect the router exactly as they protect a shard.
//
// The partial-result policy is per request: partial=1 turns a failed
// shard into a degraded 200 whose shards_failed lists the casualties (and
// an X-XR-Shards-Failed count header for cheap client-side accounting);
// without it, the first shard failure fails the request with 502.

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"strconv"

	"xrtree"
	"xrtree/internal/cluster"
	"xrtree/internal/obs"
)

// NewRouter creates a server in router mode over the coordinator. The
// caller owns the coordinator's lifecycle (Start before Serve, Close after
// Shutdown). Local backends may not be registered on a router.
func NewRouter(cfg Config, coord *cluster.Coordinator) *Server {
	s := New(cfg)
	s.coord = coord
	s.mux.HandleFunc("GET /api/v1/cluster", s.handleCluster)
	return s
}

// handleCluster serves the router's live fleet view.
func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.coord.Status())
}

// clusterBackends is the router-mode /api/v1/backends: the fleet's
// aggregated inventory (per backend, the union of owned documents).
func (s *Server) clusterBackends(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Backends []cluster.BackendInfo `json:"backends"`
	}{s.coord.Backends(r.Context())})
}

// mapClusterErr translates coordinator failures for the admit chokepoint:
// context errors pass through (admit turns deadlines into 503), a shard
// failure under the fail-fast policy is a 502 naming the shard, and
// anything else — backend inference, parameter validation — is a 400.
func mapClusterErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return err
	}
	var se *cluster.ShardError
	if errors.As(err, &se) {
		return &httpError{http.StatusBadGateway, se.Error()}
	}
	return badRequest("%v", err)
}

// parsePartial reads the partial=1 flag selecting degraded results over
// fail-fast.
func parsePartial(q url.Values) bool {
	v := q.Get("partial")
	return v == "1" || v == "true"
}

// routerTrace starts the scatter span for a traced router request and
// returns the tracer handed to the coordinator. The coordinator threads it
// through the merge driver, which opens one child span per sub-request;
// those span ids ride the outgoing traceparent headers, so the shard-side
// traces are children of this router request under one trace id.
func routerTrace(r *http.Request, req *cluster.Request, name string) (*obs.Span, *obs.Trace) {
	tr := traceFrom(r.Context())
	if tr == nil {
		return nil, nil
	}
	req.TraceID = tr.ID()
	req.Traced = true
	return tr.Root().StartSpan(name), tr
}

// routeJoin is handleJoin in router mode: validate locally (a malformed
// request must 400 here, not 400 on every shard), scatter, merge, respond.
func (s *Server) routeJoin(w http.ResponseWriter, r *http.Request, q url.Values) error {
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
	if _, err := parseIntParam(q.Get("workers"), s.cfg.Workers, "workers"); err != nil {
		return err
	}
	limit, err := parseIntParam(q.Get("limit"), s.cfg.DefaultLimit, "limit")
	if err != nil {
		return err
	}
	axis := "//"
	if mode == xrtree.ParentChild {
		axis = "/"
	}

	params := url.Values{}
	for _, k := range []string{"anc", "desc", "axis", "alg", "workers", "stats"} {
		if v := q.Get(k); v != "" {
			params.Set(k, v)
		}
	}
	req := &cluster.Request{
		Kind:    "join",
		Backend: q.Get("backend"),
		Params:  params,
		Limit:   limit,
		Partial: parsePartial(q),
	}
	span, tr := routerTrace(r, req, "scatter join "+anc+axis+desc+" alg="+alg.String())
	var tracer obs.Tracer
	if span != nil {
		defer span.End()
		tracer = span
	}

	res, err := s.coord.Gather(r.Context(), req, tracer)
	if err != nil {
		return mapClusterErr(err)
	}

	resp := joinResponse{
		Backend:      res.Backend,
		Query:        anc + axis + desc,
		Alg:          alg.String(),
		Pairs:        res.Total,
		Truncated:    res.Truncated,
		Shards:       res.Shards,
		ShardsFailed: res.ShardsFailed,
		Degraded:     len(res.ShardsFailed) > 0,
		Hedges:       res.Hedges,
		Retries:      res.Retries,
		Stats:        statsOf(&res.Stats, res.Stats.Elapsed),
	}
	for _, p := range res.Pairs {
		resp.Sample = append(resp.Sample, pairJSON{Anc: p.A, Desc: p.D})
	}
	if tr != nil {
		resp.TraceID = tr.ID().String()
	}
	if resp.Degraded {
		w.Header().Set("X-XR-Shards-Failed", strconv.Itoa(len(res.ShardsFailed)))
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// routeQuery is handleQuery in router mode.
func (s *Server) routeQuery(w http.ResponseWriter, r *http.Request, q url.Values) error {
	path := q.Get("path")
	if path == "" {
		return badRequest("path parameter is required")
	}
	limit, err := parseIntParam(q.Get("limit"), s.cfg.DefaultLimit, "limit")
	if err != nil {
		return err
	}

	params := url.Values{}
	params.Set("path", path)
	req := &cluster.Request{
		Kind:    "query",
		Backend: q.Get("backend"),
		Params:  params,
		Limit:   limit,
		Partial: parsePartial(q),
	}
	span, tr := routerTrace(r, req, "scatter query "+path)
	var tracer obs.Tracer
	if span != nil {
		defer span.End()
		tracer = span
	}

	res, err := s.coord.Gather(r.Context(), req, tracer)
	if err != nil {
		return mapClusterErr(err)
	}

	resp := queryResponse{
		Backend:      res.Backend,
		Path:         path,
		Matches:      int(res.Total),
		Truncated:    res.Truncated,
		Shards:       res.Shards,
		ShardsFailed: res.ShardsFailed,
		Degraded:     len(res.ShardsFailed) > 0,
		Hedges:       res.Hedges,
		Retries:      res.Retries,
		Stats:        statsOf(&res.Stats, res.Stats.Elapsed),
	}
	for _, p := range res.Pairs {
		resp.Sample = append(resp.Sample, p.A)
	}
	if tr != nil {
		resp.TraceID = tr.ID().String()
	}
	if resp.Degraded {
		w.Header().Set("X-XR-Shards-Failed", strconv.Itoa(len(res.ShardsFailed)))
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}
