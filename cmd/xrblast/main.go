// Command xrblast is the load generator companion of xrserve: it drives
// query traffic in closed loop (a fixed number of clients, each issuing
// the next request as soon as the previous answers) or open loop (a fixed
// arrival rate, independent of response times), and reports throughput
// and latency percentiles from the internal/obs histogram code as text or
// as one JSON document (-json).
//
// Assertion flags turn a run into a scripted check (the serve-smoke CI
// job): -wait-ready polls /healthz before driving, -min-ok/-min-rejected
// bound the outcome counts, and -assert-no-pins verifies through
// /api/v1/stats that the server's buffer pools hold no pinned pages after
// the run — i.e. canceled and timed-out queries leaked nothing.
//
// With -cluster, xrblast also scrapes the router's /api/v1/cluster view
// and probes each listed shard's /healthz itself, and asserts that the
// router knows exactly the listed shards, that its health verdict for each
// agrees with the direct probe, that degraded responses never outnumber
// successes, that some sub-requests ran, and that every latency histogram
// behind completed requests or sub-requests is non-empty.
//
// With -trace, a fraction of requests carry a sampled W3C traceparent so
// the server traces them; the report ends with the server-assigned trace
// ids of the slowest decile — handles for /debug/traces and xrtrace.
//
// With -ingest N, xrblast instead measures reader latency under write
// load: a read-only baseline phase, then the same closed-loop read drive
// with N workers batching inserts into POST /api/v1/insert, and
// -max-p99-inflation asserts the readers' p99 stayed within a factor of
// the baseline — the serve-side check that per-page latching keeps
// queries flowing during inserts.
//
// Usage:
//
//	xrblast -url http://localhost:8080 -target '/api/v1/join?anc=employee&desc=name' \
//	        -clients 64 -duration 5s
//	xrblast -url http://localhost:8080 -rate 200 -duration 10s -json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xrtree"
	"xrtree/internal/cluster"
	"xrtree/internal/obs"
)

// targetsFlag collects repeatable -target values; workers round-robin.
type targetsFlag []string

func (f *targetsFlag) String() string { return strings.Join(*f, " ") }
func (f *targetsFlag) Set(v string) error {
	if !strings.HasPrefix(v, "/") {
		return fmt.Errorf("target must start with /, got %q", v)
	}
	*f = append(*f, v)
	return nil
}

// results accumulates outcome counts and the latency histogram across
// workers. Latency is recorded for every completed HTTP exchange (including
// 429s — rejection latency is part of the served experience).
type results struct {
	requests atomic.Int64
	ok       atomic.Int64
	rejected atomic.Int64
	timeouts atomic.Int64
	errors   atomic.Int64
	degraded atomic.Int64 // 200s carrying X-XR-Shards-Failed (cluster mode)
	maxNS    atomic.Int64
	col      *obs.Collector
}

func (r *results) record(code int, d time.Duration, err error) {
	r.requests.Add(1)
	switch {
	case err != nil:
		r.errors.Add(1)
		return
	case code == http.StatusOK:
		r.ok.Add(1)
	case code == http.StatusTooManyRequests:
		r.rejected.Add(1)
	case code == http.StatusServiceUnavailable:
		r.timeouts.Add(1)
	default:
		r.errors.Add(1)
	}
	ns := d.Nanoseconds()
	r.col.Event(obs.EvServeSpan, ns)
	for {
		cur := r.maxNS.Load()
		if ns <= cur || r.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// report is the -json document: the run's serving row and, with
// -cluster or -min-hedges, the cluster section.
type report struct {
	BaseURL string        `json:"base_url"`
	Serving servingRow    `json:"serving"`
	Cluster *clusterStudy `json:"cluster,omitempty"`
}

// servingRow is one load-generation run against one serving target.
type servingRow struct {
	// Label names the run ("smoke", "closed-64", ...).
	Label string `json:"label"`
	// Target is the request path+query that was driven.
	Target string `json:"target"`
	// Clients is the closed-loop worker count, or the outstanding-request
	// bound in open loop.
	Clients int `json:"clients"`
	// RateRPS is the open-loop arrival rate; 0 means closed loop.
	RateRPS float64 `json:"rate_rps,omitempty"`
	// DurationSec is the measured wall time of the run.
	DurationSec float64 `json:"duration_sec"`
	// Requests counts every attempt; the outcome classes below partition it.
	Requests int64 `json:"requests"`
	OK       int64 `json:"ok"`       // 2xx responses
	Rejected int64 `json:"rejected"` // 429: admission queue full
	Timeouts int64 `json:"timeouts"` // 503: deadline exceeded
	Errors   int64 `json:"errors"`   // transport failures and other statuses
	// ThroughputRPS is OK responses per second of wall time.
	ThroughputRPS float64 `json:"throughput_rps"`
	// Latency digests the end-to-end client-observed request latency.
	Latency xrtree.LatencySummary `json:"latency"`
	// SlowTraces lists the server-assigned trace ids of the run's
	// slowest-decile requests (present when the run propagated trace
	// context): handles to feed /debug/traces and xrtrace.
	SlowTraces []traceHandle `json:"slow_traces,omitempty"`
}

// traceHandle points at one traced request: the client-observed latency
// and the trace id the server echoed back in its traceparent header.
type traceHandle struct {
	TraceID   string  `json:"trace_id"`
	LatencyMS float64 `json:"latency_ms"`
}

// clusterStudy is what one run observed of a cluster router: end-to-end
// counts and latency from the run itself, and per-shard rows scraped from
// the router's /api/v1/cluster status.
type clusterStudy struct {
	// Router is the router base URL the run drove.
	Router string `json:"router"`
	// Requests/OK/Degraded count end-to-end router responses seen by the
	// client; Degraded are 200s that carried a non-empty shards_failed.
	Requests int64 `json:"requests"`
	OK       int64 `json:"ok"`
	Degraded int64 `json:"degraded"`
	// Subrequests/Hedges/Retries aggregate the per-shard rows.
	Subrequests int64 `json:"subrequests"`
	Hedges      int64 `json:"hedges"`
	Retries     int64 `json:"retries"`
	// HedgeRate is Hedges/Subrequests (0 when no sub-requests ran).
	HedgeRate float64 `json:"hedge_rate"`
	// Latency is the end-to-end router request latency of the run.
	Latency xrtree.LatencySummary `json:"latency"`
	// Shards holds one row per shard the router knows.
	Shards []clusterShardRow `json:"shards"`
}

// clusterShardRow is one shard's entry in the cluster study: the
// router's view of it (Up is its health verdict at scrape time) and
// xrblast's own /healthz probe, nil when the shard is not in the
// -cluster list.
type clusterShardRow struct {
	cluster.ShardStatus
	Reachable *bool `json:"reachable,omitempty"`
}

// traceLog retains (trace id, latency) pairs for the requests the server
// traced, so the report can surface handles for the slowest ones.
type traceLog struct {
	mu      sync.Mutex
	entries []traceHandle
}

func (t *traceLog) add(id string, d time.Duration) {
	t.mu.Lock()
	t.entries = append(t.entries, traceHandle{TraceID: id, LatencyMS: float64(d.Nanoseconds()) * 1e-6})
	t.mu.Unlock()
}

// slowestDecile returns the slowest tenth of the collected handles
// (at least one, at most 16 so reports stay bounded), slowest first.
func (t *traceLog) slowestDecile() []traceHandle {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.entries) == 0 {
		return nil
	}
	sort.Slice(t.entries, func(i, j int) bool { return t.entries[i].LatencyMS > t.entries[j].LatencyMS })
	n := (len(t.entries) + 9) / 10
	if n > 16 {
		n = 16
	}
	return append([]traceHandle(nil), t.entries[:n]...)
}

func (r *results) latency() xrtree.LatencySummary {
	s := r.col.Histogram(obs.EvServeSpan).Summary()
	if s.Count > 0 {
		// The exact maximum, not the top bucket's bound.
		s.MaxMS = float64(r.maxNS.Load()) * 1e-6
	}
	return s
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("xrblast: ")
	var targets targetsFlag
	var (
		baseURL   = flag.String("url", "", "server base URL, e.g. http://127.0.0.1:8080 (required)")
		label     = flag.String("label", "run", "row label in the report")
		clients   = flag.Int("clients", 8, "closed-loop workers; in open loop, the outstanding-request bound")
		rate      = flag.Float64("rate", 0, "open-loop arrival rate in req/s (0: closed loop)")
		duration  = flag.Duration("duration", 5*time.Second, "run length")
		requests  = flag.Int64("requests", 0, "stop after this many requests (0: duration only)")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request client timeout")
		jsonOut   = flag.Bool("json", false, "emit the run report as JSON instead of text")
		waitReady = flag.Duration("wait-ready", 0, "poll /healthz up to this long before driving")
		minOK     = flag.Int64("min-ok", -1, "assert at least this many 2xx responses")
		minRej    = flag.Int64("min-rejected", -1, "assert at least this many 429 rejections")
		maxErr    = flag.Int64("max-errors", -1, "assert at most this many transport/other errors")
		noPins    = flag.Bool("assert-no-pins", false, "assert /api/v1/stats reports zero pinned pages after the run")
		traceRate = flag.Float64("trace", 0, "stamp this fraction of requests with a sampled traceparent; the report lists the slowest decile's server trace ids")
		traceSeed = flag.Uint64("trace-seed", 0, "seed for the trace-stamping decisions and ids (0: random)")
		shardList = flag.String("cluster", "", "comma-separated name=url shard list: scrape the router's /api/v1/cluster view, probe each shard's /healthz directly, and assert the two agree")
		minDeg    = flag.Int64("min-degraded", -1, "assert at least this many degraded (shards_failed) responses")
		minHedges = flag.Int64("min-hedges", -1, "assert the router reports at least this many hedged sub-requests")

		ingest      = flag.Int("ingest", 0, "ingest mode: this many concurrent insert workers POST /api/v1/insert while readers drive; runs a read-only baseline phase first")
		ingestSet   = flag.String("ingest-set", "employee", "catalogued set the ingest workers insert into")
		ingestBack  = flag.String("ingest-backend", "", "backend for ingest inserts (empty: the sole registered backend)")
		ingestBatch = flag.Int("ingest-batch", 16, "elements per insert request in ingest mode")
		maxInfl     = flag.Float64("max-p99-inflation", 0, "ingest mode: assert reader p99 under ingest stays within this factor of the read-only baseline (0: no assertion)")
		minInserted = flag.Int64("min-inserted", -1, "ingest mode: assert at least this many elements were inserted")
	)
	flag.Var(&targets, "target", "request path+query, must start with / (repeatable; workers round-robin)")
	flag.Parse()
	if *baseURL == "" {
		log.Fatal("-url is required")
	}
	if len(targets) == 0 {
		targets = targetsFlag{"/api/v1/join?anc=employee&desc=name"}
	}
	if *clients < 1 {
		*clients = 1
	}
	shards, err := parseShards(*shardList)
	if err != nil {
		log.Fatal(err)
	}

	client := &http.Client{Timeout: *timeout}
	if *waitReady > 0 {
		if err := waitForReady(client, *baseURL, *waitReady); err != nil {
			log.Fatal(err)
		}
	}

	if *ingest > 0 {
		if *rate > 0 {
			log.Fatal("-ingest is a closed-loop mode; drop -rate")
		}
		runIngestMode(client, *baseURL, targets, *clients, *duration,
			*ingest, *ingestBatch, *ingestSet, *ingestBack, *maxInfl, *minInserted, *noPins)
		return
	}

	res := &results{col: obs.NewCollector()}
	var budget atomic.Int64
	budget.Store(*requests) // 0 means unlimited
	takeBudget := func() bool {
		if *requests == 0 {
			return true
		}
		return budget.Add(-1) >= 0
	}

	// Trace propagation: a stamped request carries a sampled W3C
	// traceparent, which forces the server to trace it; the server echoes
	// its trace context back, and the echoed trace ids of the slowest
	// requests become the run's actionable handles (feed them to xrtrace
	// against /debug/traces).
	var sampler *obs.Sampler
	var ids *obs.IDSource
	traces := &traceLog{}
	if *traceRate > 0 {
		sampler = obs.NewSampler(*traceRate, *traceSeed)
		ids = obs.NewIDSource(*traceSeed)
	}

	deadline := time.Now().Add(*duration)
	start := time.Now()
	var wg sync.WaitGroup
	var seq atomic.Int64
	shoot := func() {
		i := seq.Add(1)
		target := targets[int(i)%len(targets)]
		tp := ""
		if sampler != nil && sampler.Sample() {
			tp = obs.Traceparent(ids.TraceID(), ids.SpanID(), true)
		}
		t0 := time.Now()
		code, hdr, err := get(client, *baseURL+target, tp)
		d := time.Since(t0)
		res.record(code, d, err)
		if err == nil && code == http.StatusOK && hdr.Get("X-XR-Shards-Failed") != "" {
			res.degraded.Add(1)
		}
		if tp != "" && err == nil {
			if tid, _, _, ok := obs.ParseTraceparent(hdr.Get("traceparent")); ok {
				traces.add(tid.String(), d)
			}
		}
	}

	if *rate <= 0 {
		// Closed loop: each worker drives the next request as soon as the
		// previous one completes — throughput adapts to server latency.
		for w := 0; w < *clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) && takeBudget() {
					shoot()
				}
			}()
		}
	} else {
		// Open loop: arrivals at a fixed rate regardless of completions,
		// bounded at -clients outstanding; arrivals past the bound are
		// shed client-side and counted as errors.
		interval := time.Duration(float64(time.Second) / *rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		sem := make(chan struct{}, *clients)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for time.Now().Before(deadline) && takeBudget() {
			<-tick.C
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					shoot()
				}()
			default:
				res.requests.Add(1)
				res.errors.Add(1)
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	row := servingRow{
		Label:       *label,
		Target:      strings.Join(targets, " "),
		Clients:     *clients,
		RateRPS:     *rate,
		DurationSec: elapsed.Seconds(),
		Requests:    res.requests.Load(),
		OK:          res.ok.Load(),
		Rejected:    res.rejected.Load(),
		Timeouts:    res.timeouts.Load(),
		Errors:      res.errors.Load(),
		Latency:     res.latency(),
	}
	if elapsed > 0 {
		row.ThroughputRPS = float64(row.OK) / elapsed.Seconds()
	}
	row.SlowTraces = traces.slowestDecile()

	var study *clusterStudy
	var studyErr error
	if len(shards) > 0 || *minHedges >= 0 {
		study, studyErr = scrapeCluster(client, *baseURL, shards, res)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{BaseURL: *baseURL, Serving: row, Cluster: study}); err != nil {
			log.Fatal(err)
		}
	} else {
		lat := row.Latency
		fmt.Printf("%-10s requests=%d ok=%d rejected=%d timeouts=%d errors=%d in %.2fs (%.1f ok/s)\n",
			row.Label, row.Requests, row.OK, row.Rejected, row.Timeouts, row.Errors,
			row.DurationSec, row.ThroughputRPS)
		fmt.Printf("%-10s latency mean=%.2fms p50≤%.2fms p90≤%.2fms p99≤%.2fms max=%.2fms\n",
			"", lat.MeanMS, lat.P50MS, lat.P90MS, lat.P99MS, lat.MaxMS)
		for _, h := range row.SlowTraces {
			fmt.Printf("%-10s slow trace %s %.2fms\n", "", h.TraceID, h.LatencyMS)
		}
		if study != nil {
			fmt.Printf("%-10s cluster shards=%d subrequests=%d hedges=%d (rate %.3f) retries=%d degraded=%d\n",
				"", len(study.Shards), study.Subrequests, study.Hedges, study.HedgeRate, study.Retries, study.Degraded)
			for _, sh := range study.Shards {
				state := "up"
				if !sh.Up {
					state = "DOWN"
				}
				if sh.Reachable != nil && *sh.Reachable != sh.Up {
					state += " (disagrees with direct probe)"
				}
				fmt.Printf("%-10s shard %-8s %-4s docs=%d subrequests=%d failures=%d hedges=%d retries=%d p99≤%.2fms\n",
					"", sh.Name, state, sh.Docs, sh.Subrequests, sh.Failures, sh.Hedges, sh.Retries, sh.Latency.P99MS)
			}
		}
	}

	failed := false
	check := func(cond bool, format string, args ...any) {
		if !cond {
			failed = true
			log.Printf("ASSERTION FAILED: "+format, args...)
		}
	}
	if *minOK >= 0 {
		check(row.OK >= *minOK, "ok=%d < min-ok=%d", row.OK, *minOK)
	}
	if *minRej >= 0 {
		check(row.Rejected >= *minRej, "rejected=%d < min-rejected=%d", row.Rejected, *minRej)
	}
	if *maxErr >= 0 {
		check(row.Errors <= *maxErr, "errors=%d > max-errors=%d", row.Errors, *maxErr)
	}
	if *noPins {
		pins, err := pinnedPages(client, *baseURL)
		if err != nil {
			failed = true
			log.Printf("ASSERTION FAILED: stats fetch: %v", err)
		} else {
			check(pins == 0, "server reports %d pinned pages after the run", pins)
		}
	}
	if *minDeg >= 0 {
		check(res.degraded.Load() >= *minDeg, "degraded=%d < min-degraded=%d", res.degraded.Load(), *minDeg)
	}
	check(studyErr == nil, "cluster status unavailable: %v", studyErr)
	if study != nil && *minHedges >= 0 {
		check(study.Hedges >= *minHedges, "hedges=%d < min-hedges=%d", study.Hedges, *minHedges)
	}
	if study != nil && len(shards) > 0 {
		checkCluster(study, shards, check)
	}
	if failed {
		os.Exit(1)
	}
}

// get issues one GET, stamping the traceparent header when tp is
// non-empty, and returns the status code plus the response headers (the
// echoed traceparent and, in cluster mode, X-XR-Shards-Failed).
func get(client *http.Client, url, tp string) (int, http.Header, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header, err
}

// waitForReady polls /healthz until the server answers 200.
func waitForReady(client *http.Client, base string, bound time.Duration) error {
	deadline := time.Now().Add(bound)
	for {
		code, _, err := get(client, base+"/healthz", "")
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %v (last: code=%d err=%v)", base, bound, code, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// healthSettle bounds how long scrapeCluster waits for the router's
// health verdicts to agree with the direct /healthz probes.
const healthSettle = 2 * time.Second

// scrapeCluster assembles the cluster section: client-observed end-to-end
// counts and latency from this run, the router's per-shard view scraped
// from /api/v1/cluster, and (for shards named in the -cluster list) a
// direct /healthz probe. The router's Up is sampled state (a periodic
// prober plus passive marks from failed sub-requests) and can lag a
// one-off probe, so the scrape and probes repeat every 100 ms, for up to
// healthSettle, until every listed shard's verdict matches its probe; the
// last scrape is returned either way.
func scrapeCluster(client *http.Client, base string, shards []shardAddr, res *results) (*clusterStudy, error) {
	deadline := time.Now().Add(healthSettle)
	for {
		rows, settled, err := scrapeShards(client, base, shards)
		if err != nil {
			return nil, err
		}
		if settled || time.Now().After(deadline) {
			study := &clusterStudy{
				Router:   base,
				Requests: res.requests.Load(),
				OK:       res.ok.Load(),
				Degraded: res.degraded.Load(),
				Latency:  res.latency(),
				Shards:   rows,
			}
			for _, sh := range rows {
				study.Subrequests += sh.Subrequests
				study.Hedges += sh.Hedges
				study.Retries += sh.Retries
			}
			if study.Subrequests > 0 {
				study.HedgeRate = float64(study.Hedges) / float64(study.Subrequests)
			}
			return study, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// scrapeShards reads the router's per-shard rows and probes each listed
// shard's /healthz directly, reporting whether every probed shard's
// router verdict matches its probe.
func scrapeShards(client *http.Client, base string, shards []shardAddr) ([]clusterShardRow, bool, error) {
	resp, err := client.Get(base + "/api/v1/cluster")
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("/api/v1/cluster: status %d", resp.StatusCode)
	}
	var scraped struct {
		Shards []clusterShardRow `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scraped); err != nil {
		return nil, false, err
	}

	reach := make(map[string]*bool)
	for _, sh := range shards {
		code, _, err := get(client, sh.url+"/healthz", "")
		up := err == nil && code == http.StatusOK
		reach[sh.name] = &up
	}
	settled := true
	for i := range scraped.Shards {
		sh := &scraped.Shards[i]
		sh.Reachable = reach[sh.Name]
		if sh.Reachable != nil && *sh.Reachable != sh.Up {
			settled = false
		}
	}
	return scraped.Shards, settled, nil
}

// shardAddr is one name=url entry of the -cluster list.
type shardAddr struct{ name, url string }

func parseShards(list string) ([]shardAddr, error) {
	if list == "" {
		return nil, nil
	}
	var out []shardAddr
	for _, part := range strings.Split(list, ",") {
		name, url, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -cluster entry %q (want name=url)", part)
		}
		out = append(out, shardAddr{name, strings.TrimRight(url, "/")})
	}
	return out, nil
}

// checkCluster asserts the cluster section against the -cluster list: the
// router knows exactly the listed shards and agrees with the direct probe
// about each one's health in both directions (on the scrape that
// scrapeCluster let settle, so only a disagreement that outlasts
// healthSettle fails), degraded responses never outnumber successes,
// the router ran sub-requests, and a latency histogram is non-empty
// wherever requests or sub-requests completed. The router's counters are
// cumulative across runs, so only these relations are checked, never
// rates or timings.
func checkCluster(study *clusterStudy, listed []shardAddr, check func(bool, string, ...any)) {
	known := make(map[string]bool, len(study.Shards))
	for _, sh := range study.Shards {
		known[sh.Name] = true
		check(sh.Reachable != nil, "router reports shard %q, which is not in the -cluster list", sh.Name)
		if sh.Reachable != nil {
			check(*sh.Reachable == sh.Up, "shard %s: router says up=%v, direct probe reached=%v", sh.Name, sh.Up, *sh.Reachable)
		}
		if done := sh.Subrequests - sh.Failures; done > 0 {
			check(sh.Latency.Count > 0, "shard %s: latency histogram empty despite %d completed sub-requests", sh.Name, done)
		}
	}
	for _, sh := range listed {
		check(known[sh.name], "listed shard %q missing from the router's /api/v1/cluster", sh.name)
	}
	check(study.Degraded <= study.OK, "degraded=%d exceeds ok=%d", study.Degraded, study.OK)
	check(study.Subrequests > 0, "router reports no sub-requests")
	if study.OK > 0 {
		check(study.Latency.Count > 0, "latency histogram empty despite %d completions", study.OK)
	}
}

// runIngestMode measures reader-latency inflation under concurrent
// writes: a read-only baseline phase of closed-loop readers, then the
// identical read drive with -ingest insert workers batching elements into
// /api/v1/insert. Both phases last -duration. With the tree's per-page
// latching, inserts (including page splits on the shared upper levels)
// must not stall the readers, so the p99 under ingest should stay within
// a small factor of the baseline — -max-p99-inflation turns that bound
// into a scripted assertion for the serve-smoke CI job.
func runIngestMode(client *http.Client, baseURL string, targets []string, clients int,
	dur time.Duration, workers, batch int, set, backend string,
	maxInflation float64, minInserted int64, noPins bool) {
	phase := func(withIngest bool) (lat []time.Duration, readErrs, inserted, insertErrs int64) {
		deadline := time.Now().Add(dur)
		var wg sync.WaitGroup
		lats := make([][]time.Duration, clients)
		var rerrs atomic.Int64
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; time.Now().Before(deadline); i++ {
					t0 := time.Now()
					code, _, err := get(client, baseURL+targets[(w+i)%len(targets)], "")
					if err != nil || code != http.StatusOK {
						rerrs.Add(1)
						continue
					}
					lats[w] = append(lats[w], time.Since(t0))
				}
			}(w)
		}
		var ins, ierrs atomic.Int64
		if withIngest {
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Each worker owns a private flat key range far above any
					// generated corpus, so batches never collide with the
					// indexed document or with each other.
					next := uint32(1)<<30 + uint32(w)<<24
					for time.Now().Before(deadline) {
						els := make([]xrtree.Element, batch)
						for i := range els {
							els[i] = xrtree.Element{Start: next, End: next + 2, Level: 1}
							next += 4
						}
						if err := postInsert(client, baseURL, backend, set, els); err != nil {
							ierrs.Add(1)
							log.Printf("ingest: %v", err)
							return
						}
						ins.Add(int64(batch))
					}
				}(w)
			}
		}
		wg.Wait()
		for _, ls := range lats {
			lat = append(lat, ls...)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat, rerrs.Load(), ins.Load(), ierrs.Load()
	}

	base, baseRErrs, _, _ := phase(false)
	ing, ingRErrs, inserted, insertErrs := phase(true)
	bp50, bp99 := quantileMS(base, 0.50), quantileMS(base, 0.99)
	ip50, ip99 := quantileMS(ing, 0.50), quantileMS(ing, 0.99)
	sec := dur.Seconds()
	fmt.Printf("baseline   reads=%d (%.1f/s) p50≤%.2fms p99≤%.2fms errors=%d\n",
		len(base), float64(len(base))/sec, bp50, bp99, baseRErrs)
	fmt.Printf("ingest     reads=%d (%.1f/s) p50≤%.2fms p99≤%.2fms errors=%d inserted=%d (%.1f/s) insert-errors=%d\n",
		len(ing), float64(len(ing))/sec, ip50, ip99, ingRErrs, inserted, float64(inserted)/sec, insertErrs)
	inflation := 0.0
	if bp99 > 0 {
		inflation = ip99 / bp99
		fmt.Printf("ingest     reader p99 inflation %.2f×\n", inflation)
	}

	failed := false
	check := func(cond bool, format string, args ...any) {
		if !cond {
			failed = true
			log.Printf("ASSERTION FAILED: "+format, args...)
		}
	}
	check(len(base) > 0, "baseline phase completed no reads")
	check(len(ing) > 0, "ingest phase completed no reads")
	check(baseRErrs == 0 && ingRErrs == 0, "read errors: baseline=%d ingest=%d", baseRErrs, ingRErrs)
	check(insertErrs == 0, "insert errors: %d", insertErrs)
	check(inserted > 0, "ingest workers inserted nothing")
	if minInserted >= 0 {
		check(inserted >= minInserted, "inserted=%d < min-inserted=%d", inserted, minInserted)
	}
	if maxInflation > 0 && bp99 > 0 {
		check(inflation <= maxInflation,
			"reader p99 inflated %.2f× under ingest (%.2fms → %.2fms), bound %.1f×",
			inflation, bp99, ip99, maxInflation)
	}
	if noPins {
		pins, err := pinnedPages(client, baseURL)
		if err != nil {
			failed = true
			log.Printf("ASSERTION FAILED: stats fetch: %v", err)
		} else {
			check(pins == 0, "server reports %d pinned pages after the run", pins)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// quantileMS returns the q-quantile of sorted durations, in milliseconds.
func quantileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))].Nanoseconds()) * 1e-6
}

// postInsert sends one element batch to /api/v1/insert.
func postInsert(client *http.Client, base, backend, set string, els []xrtree.Element) error {
	body, err := json.Marshal(struct {
		Set      string           `json:"set"`
		Elements []xrtree.Element `json:"elements"`
	}{Set: set, Elements: els})
	if err != nil {
		return err
	}
	u := base + "/api/v1/insert"
	if backend != "" {
		u += "?backend=" + url.QueryEscape(backend)
	}
	resp, err := client.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/api/v1/insert: status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

// pinnedPages sums pinned_pages over every backend of /api/v1/stats.
func pinnedPages(client *http.Client, base string) (int, error) {
	resp, err := client.Get(base + "/api/v1/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/api/v1/stats: status %d", resp.StatusCode)
	}
	var st struct {
		Backends []struct {
			Name string `json:"name"`
			Pool struct {
				PinnedPages int `json:"pinned_pages"`
			} `json:"pool"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	total := 0
	for _, b := range st.Backends {
		total += b.Pool.PinnedPages
	}
	return total, nil
}
