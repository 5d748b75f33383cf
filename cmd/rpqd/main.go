// Command rpqd serves a multi-run provenance catalog over HTTP/JSON.
//
// Usage:
//
//	rpqd -addr :8080 -data-dir /var/lib/rpqd
//	rpqd -addr 127.0.0.1:0 -spec wf=wf.spec.json -run r1=wf=wf.run.json
//	rpqd -timeout 10s -max-inflight 128 -workers 4 -plan-cache 4096
//	rpqd -log-requests -pprof-addr 127.0.0.1:6060
//
// With -data-dir the catalog is durable: every registered specification,
// every uploaded or derived run (labels included) and every growth batch
// appended via POST /v1/runs/{name}/edges is committed to disk before the
// request returns, and a restart with the same directory restores the
// whole catalog without re-deriving or re-labeling anything — per-run
// append logs are replayed onto the stored base runs at boot.
// Specs and runs can also be preloaded with repeatable -spec name=path
// and -run name=spec=path flags — persisted into the data dir on first
// boot, skipped on later boots when already restored — or registered at
// runtime via POST /v1/specs and POST /v1/runs. Evaluation strategies are
// chosen per run by the selectivity planner; POST /v1/explain reports the
// plan (strategy, seed tag, cost estimates) without evaluating, and every
// /v1/evaluate response names the strategy that answered. GET /metrics
// exposes Prometheus text metrics for every layer (HTTP routes,
// evaluation strategies, planner timings, store durability);
// -log-requests emits one structured JSON log line per request (with
// request ids) on stderr, and -pprof-addr serves net/http/pprof on a
// separate private listener.
//
// POST /v1/runs/{name}/stream ingests NDJSON edge/node records
// continuously, committing them in size/time-bounded groups
// (-stream-flush-records, -stream-flush-interval) through the store's
// group-commit path, and POST /v1/watch registers a standing safe query
// whose snapshot and per-append deltas stream back over SSE
// (-max-watchers, -max-streams bound the open streams). The daemon prints its
// actual listen address on startup (useful with port 0) and shuts down
// gracefully on SIGINT or SIGTERM, draining in-flight requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"provrpq"
	"provrpq/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:0 picks a free port)")
	timeout := flag.Duration("timeout", server.DefaultTimeout, "per-request handling deadline")
	maxInFlight := flag.Int("max-inflight", server.DefaultMaxInFlight, "max concurrently-served requests (negative = unlimited)")
	workers := flag.Int("workers", 0, "store-boot and batch fan-out (0 = one per CPU)")
	planCap := flag.Int("plan-cache", 0, "plan-cache capacity in compiled plans (0 = default)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "drain window for graceful shutdown")
	dataDir := flag.String("data-dir", "", "durable catalog directory (created if missing); registered specs and runs survive restarts")
	logRequests := flag.Bool("log-requests", false, "emit one structured (JSON, stderr) log line per request, with request ids")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled); keep it private")
	maxBodyBytes := flag.Int64("max-body-bytes", server.DefaultMaxBodyBytes, "max JSON request body in bytes (413 request_too_large beyond it)")
	streamFlushRecords := flag.Int("stream-flush-records", server.DefaultStreamFlushRecords, "streaming ingest: commit a group once this many NDJSON records are buffered")
	streamFlushInterval := flag.Duration("stream-flush-interval", server.DefaultStreamFlushInterval, "streaming ingest: commit a partially-filled group after this long (negative = size/EOF only)")
	maxRecordBytes := flag.Int("max-record-bytes", server.DefaultMaxRecordBytes, "streaming ingest: max bytes per NDJSON record (413 request_too_large beyond it)")
	maxWatchers := flag.Int("max-watchers", server.DefaultMaxWatchers, "max concurrently-open standing-query (SSE) streams (negative = unlimited)")
	maxStreams := flag.Int("max-streams", server.DefaultMaxStreams, "max concurrently-open NDJSON ingest streams (negative = unlimited)")

	type specFlag struct{ name, path string }
	type runFlag struct{ name, spec, path string }
	var specFlags []specFlag
	var runFlags []runFlag
	flag.Func("spec", "preload a specification, name=path (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		specFlags = append(specFlags, specFlag{name, path})
		return nil
	})
	flag.Func("run", "preload a run, name=spec=path (repeatable)", func(v string) error {
		parts := strings.SplitN(v, "=", 3)
		if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
			return fmt.Errorf("want name=spec=path, got %q", v)
		}
		runFlags = append(runFlags, runFlag{parts[0], parts[1], parts[2]})
		return nil
	})
	flag.Parse()

	opts := provrpq.CatalogOptions{
		PlanCache: provrpq.NewPlanCache(*planCap),
		Workers:   *workers,
	}
	var cat *provrpq.Catalog
	if *dataDir != "" {
		st, err := provrpq.OpenStore(*dataDir)
		fatal(err)
		cat, err = provrpq.NewCatalogFromStore(st, opts)
		fatal(err)
		ns, nr := len(cat.SpecNames()), len(cat.RunNames())
		fmt.Printf("rpqd: restored %d specification(s) and %d run(s) from %s (no re-derivation)\n", ns, nr, *dataDir)
		if k := cat.LegacyRunBases(); k == 0 {
			fmt.Printf("rpqd: run bases opened via the columnar fast path (mmap, zero-copy labels)\n")
		} else {
			fmt.Printf("rpqd: %d of %d run bases opened zero-copy; %d decoded from legacy JSON — compact to convert\n", nr-k, nr, k)
		}
		replayed := 0
		for _, rn := range cat.RunNames() {
			if v, ok := cat.RunVersion(rn); ok {
				replayed += v
			}
		}
		if replayed > 0 {
			fmt.Printf("rpqd: replayed %d growth batch(es) from the append log\n", replayed)
		}
	} else {
		cat = provrpq.NewCatalog(opts)
	}
	for _, sf := range specFlags {
		if _, ok := cat.Spec(sf.name); ok {
			fmt.Printf("rpqd: specification %q already restored from the data dir; skipping %s\n", sf.name, sf.path)
			continue
		}
		spec, err := provrpq.LoadSpec(sf.path)
		fatal(err)
		fatal(cat.RegisterSpec(sf.name, spec))
		fmt.Printf("rpqd: loaded specification %q from %s\n", sf.name, sf.path)
	}
	for _, rf := range runFlags {
		if _, ok := cat.Run(rf.name); ok {
			fmt.Printf("rpqd: run %q already restored from the data dir; skipping %s\n", rf.name, rf.path)
			continue
		}
		spec, ok := cat.Spec(rf.spec)
		if !ok {
			fatal(fmt.Errorf("run %q references unknown specification %q (order -spec before -run)", rf.name, rf.spec))
		}
		run, err := provrpq.LoadRun(rf.path, spec)
		fatal(err)
		fatal(cat.AddRun(rf.name, rf.spec, run))
		fmt.Printf("rpqd: loaded run %q (%d nodes, %d edges) from %s\n", rf.name, run.NumNodes(), run.NumEdges(), rf.path)
	}

	srvOpts := server.Options{
		Timeout:             *timeout,
		MaxInFlight:         *maxInFlight,
		MaxBodyBytes:        *maxBodyBytes,
		StreamFlushRecords:  *streamFlushRecords,
		StreamFlushInterval: *streamFlushInterval,
		MaxRecordBytes:      *maxRecordBytes,
		MaxWatchers:         *maxWatchers,
		MaxStreams:          *maxStreams,
	}
	if *logRequests {
		srvOpts.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	srv := server.New(cat, srvOpts)
	stopPprof := func() {}
	if *pprofAddr != "" {
		pa, stop, err := startPprof(*pprofAddr)
		fatal(err)
		fmt.Printf("rpqd: pprof on %s\n", pa)
		stopPprof = stop
	}
	ln, err := net.Listen("tcp", *addr)
	fatal(err)
	httpSrv := &http.Server{Handler: srv.Handler()}
	// Shutdown waits for open streams; an idle watch ends only if told to.
	httpSrv.RegisterOnShutdown(srv.CloseWatches)
	fmt.Printf("rpqd: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fatal(err)
	case <-ctx.Done():
		stop()
		fmt.Println("rpqd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "rpqd: forced shutdown:", err)
			_ = httpSrv.Close()
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
		stopPprof()
		fmt.Println("rpqd: bye")
	}
}

// startPprof serves net/http/pprof on its own mux and listener, so
// profiling never shares a port (or the request limiter) with the
// public API. The returned stop function closes the listener, joins the
// serve goroutine, and logs its exit — the daemon never leaves the
// profiler dangling past a graceful shutdown.
func startPprof(addr string) (net.Addr, func(), error) {
	pm := http.NewServeMux()
	pm.HandleFunc("/debug/pprof/", pprof.Index)
	pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
	pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
	pln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	done := make(chan error, 1)
	go func() { done <- http.Serve(pln, pm) }()
	stop := func() {
		_ = pln.Close()
		if err := <-done; err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintln(os.Stderr, "rpqd: pprof server:", err)
		}
		fmt.Println("rpqd: pprof listener closed")
	}
	return pln.Addr(), stop, nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpqd:", err)
		os.Exit(1)
	}
}
