package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"xrtree/internal/xmldoc"
)

// fakeShard serves the minimal shard surface the coordinator touches:
// /healthz, /api/v1/backends with a doc_ids inventory, and /api/v1/join
// answering one pair per requested document after an optional delay.
func fakeShard(t *testing.T, docIDs []uint32, delay time.Duration) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	hits := &atomic.Int64{}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/api/v1/backends", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"backends": []BackendInfo{{Name: "docs", Kind: "documents", Documents: len(docIDs), DocIDs: docIDs}},
		})
	})
	mux.HandleFunc("/api/v1/join", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		set, err := ParseDocSet(r.URL.Query().Get("docs"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var resp subJoinResponse
		for _, id := range docIDs {
			if !DocSetContains(set, id) {
				continue
			}
			resp.Pairs++
			resp.Sample = append(resp.Sample, subPair{
				Anc:  xmldoc.Element{DocID: id, Start: 1, End: 10, Level: 1},
				Desc: xmldoc.Element{DocID: id, Start: 2, End: 3, Level: 2},
			})
		}
		resp.Stats.ElementsScanned = resp.Pairs * 2
		json.NewEncoder(w).Encode(resp)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, hits
}

func testCoord(t *testing.T, cfg *Config, opt Options) *Coordinator {
	t.Helper()
	co, err := New(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co
}

func TestGatherMergesInDocumentOrder(t *testing.T) {
	a, _ := fakeShard(t, []uint32{1, 2, 3}, 0)
	b, _ := fakeShard(t, []uint32{4, 5, 6}, 0)
	cfg := &Config{Shards: []ShardSpec{
		{Name: "a", Addr: a.URL, Lo: 1, Hi: 3, HasRange: true},
		{Name: "b", Addr: b.URL, Lo: 4, Hi: 6, HasRange: true},
	}}
	co := testCoord(t, cfg, Options{})

	res, err := co.Gather(context.Background(), &Request{Kind: "join", Params: url.Values{}, Limit: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "docs" || res.Docs != 6 || res.Runs != 2 || res.Shards != 2 {
		t.Fatalf("result meta = %+v", res)
	}
	if res.Total != 6 || res.Truncated || len(res.ShardsFailed) != 0 {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Pairs) != 6 {
		t.Fatalf("got %d pairs, want 6", len(res.Pairs))
	}
	for i, p := range res.Pairs {
		if p.A.DocID != uint32(i+1) {
			t.Fatalf("pair %d has DocID %d — stream not in document order", i, p.A.DocID)
		}
	}
	if res.Stats.ElementsScanned != 12 {
		t.Fatalf("shard stats not folded in: %+v", res.Stats)
	}
}

// denseShard is a one-document shard whose join answer is perDoc pairs,
// encoded once up front so that serving it costs only the delay.
func denseShard(t *testing.T, id uint32, perDoc int, delay time.Duration) *httptest.Server {
	t.Helper()
	resp := subJoinResponse{Pairs: int64(perDoc)}
	for i := uint32(0); i < uint32(perDoc); i++ {
		resp.Sample = append(resp.Sample, subPair{
			Anc:  xmldoc.Element{DocID: id, Start: 1, End: 10 + 2*i, Level: 1},
			Desc: xmldoc.Element{DocID: id, Start: 2 + 2*i, End: 3 + 2*i, Level: 2},
		})
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/backends", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"backends": []BackendInfo{{Name: "docs", Kind: "documents", Documents: 1, DocIDs: []uint32{id}}},
		})
	})
	mux.HandleFunc("/api/v1/join", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.Write(body)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestGatherFanoutOverlaps checks that an output-dense scatter still
// fetches its shards concurrently: each of three shards answers after the
// same delay with more pairs than the parallel driver's 2048-pair chunk,
// and the gather returns them in document order within two delays. The
// delay is long because under -race decoding the 6 300 pairs alone takes
// about 200 ms on two CPUs; run one after another, the sub-requests would
// take three delays.
func TestGatherFanoutOverlaps(t *testing.T) {
	const delay, perDoc = 500 * time.Millisecond, 2100
	var specs []ShardSpec
	for i, name := range []string{"a", "b", "c"} {
		id := uint32(i + 1)
		specs = append(specs, ShardSpec{Name: name, Addr: denseShard(t, id, perDoc, delay).URL, Lo: id, Hi: id, HasRange: true})
	}
	co := testCoord(t, &Config{Shards: specs}, Options{})

	start := time.Now()
	res, err := co.Gather(context.Background(), &Request{Kind: "join", Params: url.Values{}}, nil)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 3*perDoc || res.Total != 3*perDoc {
		t.Fatalf("got %d pairs (total %d), want %d", len(res.Pairs), res.Total, 3*perDoc)
	}
	for i, p := range res.Pairs {
		if p.A.DocID != uint32(i/perDoc+1) || p.D.Start != uint32(2+2*(i%perDoc)) {
			t.Fatalf("pair %d = doc %d start %d: stream not in document order", i, p.A.DocID, p.D.Start)
		}
	}
	t.Logf("gather took %v", wall)
	if wall >= 2*delay {
		t.Fatalf("gather took %v over three %v shards: the sub-requests did not overlap", wall, delay)
	}
}

func TestGatherPartialResultPolicy(t *testing.T) {
	a, _ := fakeShard(t, []uint32{1, 2}, 0)
	b, _ := fakeShard(t, []uint32{3, 4}, 0)
	cfg := &Config{Shards: []ShardSpec{
		{Name: "a", Addr: a.URL, Lo: 1, Hi: 2, HasRange: true},
		{Name: "b", Addr: b.URL, Lo: 3, Hi: 4, HasRange: true},
	}}
	co := testCoord(t, cfg, Options{SubTimeout: 2 * time.Second})

	// Warm the inventory cache while both shards are healthy, then kill b:
	// the next gather must fail b's sub-request, not its inventory fetch.
	if _, err := co.Gather(context.Background(), &Request{Kind: "join", Params: url.Values{}, Limit: 10, Partial: true}, nil); err != nil {
		t.Fatal(err)
	}
	b.Close()

	res, err := co.Gather(context.Background(), &Request{Kind: "join", Params: url.Values{}, Limit: 10, Partial: true}, nil)
	if err != nil {
		t.Fatalf("partial gather must not fail: %v", err)
	}
	if len(res.ShardsFailed) != 1 || res.ShardsFailed[0] != "b" {
		t.Fatalf("ShardsFailed = %v, want [b]", res.ShardsFailed)
	}
	if res.Total != 2 || len(res.Pairs) != 2 || res.Pairs[0].A.DocID != 1 || res.Pairs[1].A.DocID != 2 {
		t.Fatalf("healthy shard's results corrupted: %+v", res)
	}
	if co.Metrics().degraded.Load() == 0 {
		t.Fatal("degraded counter not bumped")
	}

	// Without the partial policy the same failure aborts the request with a
	// typed shard error.
	_, err = co.Gather(context.Background(), &Request{Kind: "join", Params: url.Values{}, Limit: 10}, nil)
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != "b" {
		t.Fatalf("err = %v, want *ShardError for shard b", err)
	}
}

// malformedShard answers health and inventory like a healthy shard but
// returns 200 with an undecodable body for join sub-requests.
func malformedShard(t *testing.T, docIDs []uint32) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/api/v1/backends", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"backends": []BackendInfo{{Name: "docs", Kind: "documents", Documents: len(docIDs), DocIDs: docIDs}},
		})
	})
	mux.HandleFunc("/api/v1/join", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{this is not json"))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestGatherMalformedResponseIsShardFailure pins the errclass fix: a
// shard answering 200 with garbage must fail like any other shard
// failure — typed *ShardError without Partial, a degraded result with
// the shard listed in ShardsFailed with it — instead of leaking a naked
// decode error that reads as a client-side 400.
func TestGatherMalformedResponseIsShardFailure(t *testing.T) {
	a, _ := fakeShard(t, []uint32{1, 2}, 0)
	b := malformedShard(t, []uint32{3, 4})
	cfg := &Config{Shards: []ShardSpec{
		{Name: "a", Addr: a.URL, Lo: 1, Hi: 2, HasRange: true},
		{Name: "b", Addr: b.URL, Lo: 3, Hi: 4, HasRange: true},
	}}
	co := testCoord(t, cfg, Options{})

	res, err := co.Gather(context.Background(), &Request{Kind: "join", Params: url.Values{}, Limit: 10, Partial: true}, nil)
	if err != nil {
		t.Fatalf("partial gather must degrade, not fail: %v", err)
	}
	if len(res.ShardsFailed) != 1 || res.ShardsFailed[0] != "b" {
		t.Fatalf("ShardsFailed = %v, want [b]", res.ShardsFailed)
	}
	if res.Total != 2 || len(res.Pairs) != 2 || res.Pairs[0].A.DocID != 1 || res.Pairs[1].A.DocID != 2 {
		t.Fatalf("healthy shard's results corrupted: %+v", res)
	}

	_, err = co.Gather(context.Background(), &Request{Kind: "join", Params: url.Values{}, Limit: 10}, nil)
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != "b" {
		t.Fatalf("err = %v, want *ShardError for shard b", err)
	}
}

func TestExecHedgesToReplica(t *testing.T) {
	slow, slowHits := fakeShard(t, []uint32{1}, 300*time.Millisecond)
	fast, fastHits := fakeShard(t, []uint32{1}, 0)
	cfg := &Config{Shards: []ShardSpec{{Name: "a", Addr: slow.URL, Replica: fast.URL, Lo: 1, Hi: 1, HasRange: true}}}
	co := testCoord(t, cfg, Options{HedgeAfter: 5 * time.Millisecond, SubTimeout: 2 * time.Second})

	rec := &reqRecorder{}
	start := time.Now()
	body, err := co.exec(context.Background(), cfg.Shards[0], "/api/v1/join?docs=1", "", nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 {
		t.Fatal("empty winning body")
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("hedge did not cut the tail: took %v", d)
	}
	if rec.hedges.Load() != 1 {
		t.Fatalf("hedges = %d, want 1", rec.hedges.Load())
	}
	if fastHits.Load() != 1 {
		t.Fatalf("replica hits = %d, want 1", fastHits.Load())
	}
	_ = slowHits
	if co.met.perShard["a"].hedges.Load() != 1 {
		t.Fatal("shard hedge metric not bumped")
	}
}

func TestExecFailoverRetry(t *testing.T) {
	dead, _ := fakeShard(t, []uint32{1}, 0)
	deadURL := dead.URL
	dead.Close() // connection refused: an instant retriable transport error
	live, liveHits := fakeShard(t, []uint32{1}, 0)
	cfg := &Config{Shards: []ShardSpec{{Name: "a", Addr: deadURL, Replica: live.URL, Lo: 1, Hi: 1, HasRange: true}}}
	co := testCoord(t, cfg, Options{SubTimeout: 2 * time.Second})

	rec := &reqRecorder{}
	if _, err := co.exec(context.Background(), cfg.Shards[0], "/api/v1/join?docs=1", "", nil, rec); err != nil {
		t.Fatal(err)
	}
	if rec.retries.Load() != 1 || rec.hedges.Load() != 0 {
		t.Fatalf("retries=%d hedges=%d, want 1/0", rec.retries.Load(), rec.hedges.Load())
	}
	if liveHits.Load() != 1 {
		t.Fatalf("replica hits = %d, want 1", liveHits.Load())
	}
}

func TestExecFatalStatusDoesNotRetry(t *testing.T) {
	hits := &atomic.Int64{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no such backend", http.StatusNotFound)
	}))
	t.Cleanup(srv.Close)
	cfg := &Config{Shards: []ShardSpec{{Name: "a", Addr: srv.URL, Replica: srv.URL + "/", Lo: 1, Hi: 1, HasRange: true}}}
	co := testCoord(t, cfg, Options{SubTimeout: 2 * time.Second})

	rec := &reqRecorder{}
	_, err := co.exec(context.Background(), cfg.Shards[0], "/api/v1/join?docs=1", "", nil, rec)
	var se *ShardError
	if !errors.As(err, &se) || se.Retriable || se.Code != http.StatusNotFound {
		t.Fatalf("err = %v, want fatal *ShardError with code 404", err)
	}
	if rec.retries.Load() != 0 || hits.Load() != 1 {
		t.Fatalf("fatal error retried: retries=%d hits=%d", rec.retries.Load(), hits.Load())
	}
}

func TestExecFailsFastOnDownShard(t *testing.T) {
	srv, hits := fakeShard(t, []uint32{1}, 0)
	cfg := &Config{Shards: []ShardSpec{{Name: "a", Addr: srv.URL, Lo: 1, Hi: 1, HasRange: true}}}
	co := testCoord(t, cfg, Options{SubTimeout: 2 * time.Second})
	for i := 0; i < probeFailThreshold; i++ {
		co.probe.Observe("a", false)
	}

	start := time.Now()
	_, err := co.exec(context.Background(), cfg.Shards[0], "/api/v1/join?docs=1", "", nil, &reqRecorder{})
	if !errors.Is(err, errShardDown) {
		t.Fatalf("err = %v, want errShardDown", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("down-shard sub-request took %v, want instant fail", d)
	}
	if hits.Load() != 0 {
		t.Fatal("down shard was contacted")
	}

	// One success flips it back up.
	co.probe.Observe("a", true)
	if _, err := co.exec(context.Background(), cfg.Shards[0], "/api/v1/join?docs=1", "", nil, &reqRecorder{}); err != nil {
		t.Fatal(err)
	}
}

func TestHedgeDelayDerivation(t *testing.T) {
	cfg := &Config{Shards: []ShardSpec{{Name: "a", Addr: "http://a"}}}
	co := testCoord(t, cfg, Options{HedgeMin: 2 * time.Millisecond, HedgeMax: 100 * time.Millisecond})

	// Cold start: not enough samples, use the conservative maximum.
	if d := co.hedgeDelay("a"); d != 100*time.Millisecond {
		t.Fatalf("cold hedge delay = %v, want HedgeMax", d)
	}
	// Warm: 1.5×p99, clamped into [HedgeMin, HedgeMax].
	for i := 0; i < hedgeMinSamples; i++ {
		co.met.Attempt("a", 10*time.Millisecond, true)
	}
	d := co.hedgeDelay("a")
	if d < 2*time.Millisecond || d > 100*time.Millisecond {
		t.Fatalf("derived hedge delay %v outside clamp", d)
	}
	if d == 100*time.Millisecond {
		t.Fatalf("derived hedge delay stuck at HedgeMax despite %d samples", hedgeMinSamples)
	}
	// Failures must not feed the histogram (a burst of instant refusals
	// would otherwise collapse the delay).
	before := d
	for i := 0; i < 100; i++ {
		co.met.Attempt("a", 0, false)
	}
	if d := co.hedgeDelay("a"); d != before {
		t.Fatalf("failed attempts moved the hedge delay %v → %v", before, d)
	}
	// A fixed -hedge-after overrides derivation entirely.
	co.opt.HedgeAfter = 7 * time.Millisecond
	if d := co.hedgeDelay("a"); d != 7*time.Millisecond {
		t.Fatalf("fixed hedge delay = %v", d)
	}
}

func TestDocSetRoundTrip(t *testing.T) {
	ids := []uint32{1, 2, 3, 7, 9, 10, 11, 40}
	s := FormatDocSet(ids)
	if s != "1-3,7,9-11,40" {
		t.Fatalf("FormatDocSet = %q", s)
	}
	set, err := ParseDocSet(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if !DocSetContains(set, id) {
			t.Fatalf("round trip lost %d", id)
		}
	}
	for _, id := range []uint32{0, 4, 6, 8, 12, 39, 41} {
		if DocSetContains(set, id) {
			t.Fatalf("round trip invented %d", id)
		}
	}
	if FormatDocSet(nil) != "" {
		t.Fatal("empty set should format empty")
	}
	if _, err := ParseDocSet("1-3,,5"); err == nil {
		t.Fatal("want error for empty docs= entry")
	}
}
