// Command xrserve serves structural-join and path-expression queries over
// HTTP/JSON from stores built by xrload (or from XML documents indexed at
// startup), with admission control: bounded concurrency, a bounded
// deadline-aware wait queue, per-request timeouts, and graceful drain on
// SIGINT/SIGTERM.
//
// Usage:
//
//	xrload -in dept.xml -store dept.db -tags department,employee,name
//	xrserve -store dept=dept.db -addr :8080
//	curl 'localhost:8080/api/v1/join?anc=employee&desc=name&alg=xr&stats=1'
//
//	xrserve -xml docs=a.xml,b.xml            # path queries + parallel joins
//	curl 'localhost:8080/api/v1/query?path=departments//employee/name'
//
// Endpoints: /api/v1/join, /api/v1/query, /api/v1/insert, /api/v1/stats,
// /api/v1/backends, /debug/traces, /metrics, /healthz. Request tracing is
// enabled with -trace-sample (or per request via a sampled traceparent
// header); -slow-trace pins outliers in the flight recorder; -debug-addr
// serves net/http/pprof on a separate listener. See DESIGN.md "Serving"
// and "Request tracing".
//
// Cluster mode (DESIGN.md "Distributed serving"): with -cluster FILE and
// no -shard, xrserve runs as a router — no local backends, every join and
// query scatter-gathers across the shards named in FILE, /api/v1/cluster
// reports fleet health. A shard node serves a DocId slice of the corpus:
// either -owns 1-4 (explicit claim, used by scripts) or -shard NAME with
// -cluster FILE (ownership derived from the placement ring). A router
// refuses to start when the config's explicit ownership claims overlap.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xrtree"
	"xrtree/internal/cluster"
	"xrtree/internal/server"
)

// backendFlag collects repeatable name=path[,path...] flag values.
type backendFlag struct {
	entries []backendSpec
}

type backendSpec struct {
	name  string
	paths []string
}

func (f *backendFlag) String() string {
	var parts []string
	for _, e := range f.entries {
		parts = append(parts, e.name+"="+strings.Join(e.paths, ","))
	}
	return strings.Join(parts, " ")
}

func (f *backendFlag) Set(v string) error {
	name, paths, ok := strings.Cut(v, "=")
	if !ok || name == "" || paths == "" {
		return fmt.Errorf("want name=path[,path...], got %q", v)
	}
	f.entries = append(f.entries, backendSpec{name: name, paths: strings.Split(paths, ",")})
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("xrserve: ")
	var stores, xmls backendFlag
	var (
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address")
		addrFile      = flag.String("addr-file", "", "write the bound address to this file (port discovery for scripts)")
		maxConcurrent = flag.Int("max-concurrent", 8, "requests executing at once")
		maxQueue      = flag.Int("max-queue", 0, "admission queue bound (0: 2×max-concurrent, negative: no queue)")
		defTimeout    = flag.Duration("timeout", 10*time.Second, "default per-request timeout")
		maxTimeout    = flag.Duration("max-timeout", 60*time.Second, "cap on requested timeouts")
		workers       = flag.Int("workers", 1, "default parallel-join workers for document backends")
		limit         = flag.Int("limit", 10, "default result-sample size")
		buffers       = flag.Int("buffers", 100, "buffer pool pages per store")
		useWAL        = flag.Bool("wal", false, "open -store backends with the write-ahead log: recovery runs on open, mutations are crash-durable")
		drain         = flag.Duration("drain", 10*time.Second, "graceful-drain bound on shutdown")
		traceSample   = flag.Float64("trace-sample", 0, "head-based trace sampling rate in [0,1] (0: only requests with a sampled traceparent)")
		traceBuffer   = flag.Int("trace-buffer", 64, "flight-recorder capacity (completed traces)")
		tracePinned   = flag.Int("trace-pinned", 16, "pinned slow-trace ring capacity")
		slowTrace     = flag.Duration("slow-trace", 0, "pin traces at or above this duration (0: disabled)")
		traceSeed     = flag.Uint64("trace-seed", 0, "seed for sampling and trace ids (0: random; fixed seeds are deterministic)")
		debugAddr     = flag.String("debug-addr", "", "serve net/http/pprof on this separate listener (empty: disabled)")
		clusterFile   = flag.String("cluster", "", "cluster membership file: router mode without -shard, ring ownership with -shard")
		shardName     = flag.String("shard", "", "this node's shard name in the -cluster file")
		ownsFlag      = flag.String("owns", "", "DocId ranges this shard owns, e.g. 1-4,9 (explicit claim)")
		subTimeout    = flag.Duration("sub-timeout", 5*time.Second, "router: per-shard sub-request budget")
		hedgeAfter    = flag.Duration("hedge-after", 0, "router: fixed hedge delay (0: derive from each shard's p99)")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "router: /healthz probe cadence")
		fanout        = flag.Int("fanout", 8, "router: concurrent shard sub-requests")
	)
	flag.Var(&stores, "store", "store backend, name=path (repeatable; path built by xrload)")
	flag.Var(&xmls, "xml", "document backend, name=file.xml[@docid][,file2.xml...] (repeatable)")
	flag.Parse()
	routerMode := *clusterFile != "" && *shardName == ""
	if routerMode && len(stores.entries)+len(xmls.entries) > 0 {
		log.Fatal("router mode (-cluster without -shard) serves no local backends; drop -store/-xml or add -shard")
	}
	if !routerMode && len(stores.entries)+len(xmls.entries) == 0 {
		log.Fatal("at least one -store or -xml backend is required")
	}

	var owns func(uint32) bool
	if *ownsFlag != "" {
		set, err := cluster.ParseDocSet(*ownsFlag)
		if err != nil {
			log.Fatalf("-owns: %v", err)
		}
		owns = func(id uint32) bool { return cluster.DocSetContains(set, id) }
	}
	if *shardName != "" && owns == nil {
		// Ownership comes from the same placement ring the router uses, so
		// shard and router agree on every DocId by construction.
		if *clusterFile == "" {
			log.Fatal("-shard needs -cluster (ring ownership) or -owns (explicit claim)")
		}
		ccfg, err := cluster.ParseConfigFile(*clusterFile)
		if err != nil {
			log.Fatal(err)
		}
		if ccfg.Shard(*shardName) == nil {
			log.Fatalf("-shard %q is not in %s", *shardName, *clusterFile)
		}
		ring, name := cluster.NewRing(ccfg), *shardName
		owns = func(id uint32) bool {
			owner, ok := ring.Owner(id)
			return ok && owner == name
		}
	}

	scfg := server.Config{
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		Workers:        *workers,
		DefaultLimit:   *limit,
		TraceSample:    *traceSample,
		TraceBuffer:    *traceBuffer,
		TracePinned:    *tracePinned,
		SlowTrace:      *slowTrace,
		TraceSeed:      *traceSeed,
		ShardName:      *shardName,
		Owns:           owns,
	}
	var srv *server.Server
	if routerMode {
		ccfg, err := cluster.ParseConfigFile(*clusterFile)
		if err != nil {
			var oe *cluster.OverlapError
			if errors.As(err, &oe) {
				log.Fatalf("refusing to start: %v", err)
			}
			log.Fatal(err)
		}
		coord, err := cluster.New(ccfg, cluster.Options{
			SubTimeout:    *subTimeout,
			HedgeAfter:    *hedgeAfter,
			ProbeInterval: *probeInterval,
			Fanout:        *fanout,
		})
		if err != nil {
			log.Fatal(err)
		}
		coord.Start()
		defer coord.Close()
		srv = server.NewRouter(scfg, coord)
		log.Printf("router over %d shards (%s)", len(ccfg.Shards), *clusterFile)
	} else {
		srv = server.New(scfg)
	}

	var closers []func() error
	defer func() {
		for _, c := range closers {
			if err := c(); err != nil {
				log.Printf("close: %v", err)
			}
		}
	}()

	for _, e := range stores.entries {
		if len(e.paths) != 1 {
			log.Fatalf("-store %s: exactly one store file per backend", e.name)
		}
		st, err := xrtree.OpenStore(e.paths[0], xrtree.StoreOptions{BufferPages: *buffers, WAL: *useWAL})
		if err != nil {
			if errors.Is(err, xrtree.ErrRecoveryNeeded) {
				log.Fatalf("-store %s: %v (pass -wal to recover)", e.name, err)
			}
			log.Fatalf("-store %s: %v", e.name, err)
		}
		if rep := st.Recovery(); rep != nil && rep.Replayed() {
			log.Printf("-store %s: recovered: %d transactions redone, %d pages, torn tail: %v",
				e.name, rep.TxCommitted, rep.PagesApplied, rep.TornTail)
		}
		closers = append(closers, st.Close)
		if err := srv.AddStore(e.name, st); err != nil {
			log.Fatal(err)
		}
	}
	for _, e := range xmls.entries {
		st, err := xrtree.NewMemStore(xrtree.StoreOptions{BufferPages: *buffers})
		if err != nil {
			log.Fatal(err)
		}
		closers = append(closers, st.Close)
		var docs []*xrtree.Document
		nextID := uint32(1)
		for _, spec := range e.paths {
			path, idStr, hasID := strings.Cut(spec, "@")
			docID := nextID
			if hasID {
				n, err := strconv.ParseUint(idStr, 10, 32)
				if err != nil || n == 0 {
					log.Fatalf("-xml %s: bad doc id %q (want file.xml@N, N ≥ 1)", e.name, idStr)
				}
				docID = uint32(n)
			}
			nextID = docID + 1
			f, err := os.Open(path)
			if err != nil {
				log.Fatalf("-xml %s: %v", e.name, err)
			}
			doc, err := xrtree.ParseXML(f, docID)
			f.Close()
			if err != nil {
				log.Fatalf("-xml %s: %s: %v", e.name, path, err)
			}
			docs = append(docs, doc)
		}
		if err := srv.AddDocuments(e.name, st, docs...); err != nil {
			log.Fatal(err)
		}
	}

	// The pprof endpoints go on their own listener, never the serving
	// address: profiles are operator-only (bind -debug-addr to loopback or
	// a private interface) and a long profile download must not occupy an
	// admission slot. Handlers are registered on a private mux so nothing
	// here depends on http.DefaultServeMux.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("-debug-addr: %v", err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("pprof on http://%s/debug/pprof/", dln.Addr())
		go func() {
			if err := http.Serve(dln, dmux); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("serving on http://%s (max-concurrent=%d)", ln.Addr(), *maxConcurrent)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("draining (bound %v)...", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
	log.Print("drained cleanly")
}
