// Package server exposes a Catalog over HTTP/JSON — the paper's serving
// scenario: provenance labels are computed once at derivation time, then
// many clients answer many queries from stored labels alone.
//
// Endpoints (all JSON):
//
//	POST /v1/specs             register a specification   {"name", "spec"}
//	GET  /v1/specs             list specifications
//	POST /v1/runs              upload or derive a run     {"name", "spec", "run"|"derive"}
//	GET  /v1/runs              list runs
//	POST /v1/runs/{name}/edges grow a run by one batch    {"nodes"?, "edges"?}
//	POST /v1/runs/{name}/compact fold the run's append log into one stored base
//	POST /v1/evaluate          full evaluation on one run {"run", "query", "count_only"?, "limit"?, "offset"?}
//	POST /v1/explain           plan report, no evaluation {"run", "query"}
//	POST /v1/pairwise          one pair on one run        {"run", "query", "from", "to"}
//	POST /v1/batch             runs × queries fan-out     {"runs"?, "queries", "count_only"?}
//	GET  /v1/snapshot          durable-store contents (what a restart restores)
//	GET  /healthz              liveness (never limited); 503 "wedged" when the
//	                           durable store refused further mutations
//	GET  /metrics              Prometheus text exposition: catalog, plan
//	                           cache, request, uptime and build-info
//	                           families (never limited)
//
// Every request is counted, timed and (optionally) logged: per-route
// request counters and latency histograms land in the server's metrics
// registry (Options.Metrics, the process-wide default registry unless
// overridden), and Options.Logger, when set, emits one structured log
// line per request with a request id that is also returned in the
// X-Request-Id response header.
//
// Errors share one shape: {"error": {"code": "...", "message": "..."}}.
// When the catalog has a durable store attached (rpqd -data-dir), every
// successful POST /v1/specs and POST /v1/runs is committed to disk before
// the 201 is written; a persist failure leaves the catalog unchanged and
// answers 500 store_failed. The handler enforces a bounded number of
// in-flight requests (excess requests are rejected immediately with 429,
// protecting latency under overload) and a per-request deadline: evaluate and
// batch answer 503 timeout once it passes; other routes have no server
// deadline.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"provrpq"
	"provrpq/internal/metrics"
)

// DefaultTimeout is the default request deadline (Options.Timeout).
const DefaultTimeout = 30 * time.Second

// DefaultMaxInFlight bounds concurrently-served requests.
const DefaultMaxInFlight = 64

// DefaultMaxBodyBytes bounds one request body (runs of millions of edges
// fit comfortably; unbounded bodies would let one client exhaust memory).
const DefaultMaxBodyBytes = 1 << 28

// Streaming-ingestion defaults (see Options and stream.go).
const (
	// DefaultStreamFlushRecords bounds a streaming-ingest group by record
	// count.
	DefaultStreamFlushRecords = 512
	// DefaultStreamFlushInterval bounds how long a partially-filled group
	// may sit before it is committed.
	DefaultStreamFlushInterval = 150 * time.Millisecond
	// DefaultMaxRecordBytes bounds one NDJSON record.
	DefaultMaxRecordBytes = 1 << 20
	// DefaultMaxWatchers bounds concurrently-open standing-query streams.
	DefaultMaxWatchers = 64
	// DefaultMaxStreams bounds concurrently-open ingest streams.
	DefaultMaxStreams = 16
)

// Options configure a Server.
type Options struct {
	// Timeout is the deadline on a request's context, which only evaluate
	// and batch consult (0 selects DefaultTimeout, negative disables it).
	Timeout time.Duration
	// MaxInFlight bounds concurrently-served requests (0 selects
	// DefaultMaxInFlight, negative disables the limit).
	MaxInFlight int
	// MaxBodyBytes bounds one JSON request body; exceeding it answers 413
	// request_too_large (0 selects DefaultMaxBodyBytes). Streaming-ingest
	// bodies are unbounded in total and bounded per record instead (see
	// MaxRecordBytes).
	MaxBodyBytes int64
	// StreamFlushRecords bounds a streaming-ingest group: a flush commits
	// once this many records are buffered (0 selects
	// DefaultStreamFlushRecords).
	StreamFlushRecords int
	// StreamFlushInterval commits a partially-filled ingest group after
	// this long, so a slow feed still becomes durable (and visible to
	// standing queries) promptly. 0 selects DefaultStreamFlushInterval;
	// negative disables the timer (groups flush on size and EOF only).
	StreamFlushInterval time.Duration
	// MaxRecordBytes bounds one NDJSON record on the ingest stream;
	// exceeding it answers 413 request_too_large (0 selects
	// DefaultMaxRecordBytes).
	MaxRecordBytes int
	// MaxWatchers bounds concurrently-open standing-query (SSE) streams;
	// excess registrations answer 429 (0 selects DefaultMaxWatchers,
	// negative disables the limit).
	MaxWatchers int
	// MaxStreams bounds concurrently-open NDJSON ingest streams; excess
	// streams answer 429 (0 selects DefaultMaxStreams, negative disables
	// the limit).
	MaxStreams int
	// Metrics is the registry request counters, latency histograms and
	// catalog gauges register into; nil selects the process-wide default
	// registry (which /metrics then also exposes for every other layer —
	// engine, planner, store).
	Metrics *metrics.Registry
	// Logger, when set, receives one structured log line per request
	// (request id, route, status, duration).
	Logger *slog.Logger
}

// Server serves a Catalog over HTTP. Create with New, mount via Handler.
type Server struct {
	cat          *provrpq.Catalog
	timeout      time.Duration
	maxInFlight  int
	maxBodyBytes int64
	sem          chan struct{}
	reg          *metrics.Registry
	log          *slog.Logger
	start        time.Time

	// Streaming-ingest and standing-query bounds (see Options).
	flushRecords  int
	flushInterval time.Duration
	maxRecord     int
	maxWatchers   int
	maxStreams    int

	inFlight atomic.Int64  // handlers currently doing work (a slot is held until its handler returns)
	reqSeq   atomic.Uint64 // request-id source
	watchers atomic.Int64  // open standing-query (SSE) streams
	streams  atomic.Int64  // open NDJSON ingest streams

	// watchMu guards the watch groups and their member sets (watch.go).
	//provrpq:lockrank serverWatchMu 17
	watchMu     sync.Mutex
	watchGroups map[watchKey]*watchGroup
	watchClosed bool // CloseWatches ran: no new streams

	mRequests   *metrics.Counter      // every request reaching the JSON routes, admitted or not
	mRejected   *metrics.Counter      // turned away by the in-flight limit (a subset of requests)
	mFailed     *metrics.Counter      // error responses from routed handlers (rejections and timeouts excluded)
	mRouteTotal *metrics.CounterVec   // responses by (route, status code), all routes
	mLatency    *metrics.HistogramVec // request latency by route, all routes
	mRunGen     *metrics.GaugeVec     // per-run growth generation, synced at scrape time

	mIngestRecords *metrics.CounterVec // NDJSON records accepted, by kind (node, edge)
	mIngestBatches *metrics.Counter    // ingest groups committed through the append path
	mWatchDeltas   *metrics.Counter    // delta events written to standing-query subscribers
	mWatchDropped  *metrics.Counter    // watchers dropped for lagging behind the append rate
	mWatchRebuilds *metrics.Counter    // rebuilds of a watch group's retained evaluator state
	mWatchSeconds  *metrics.Histogram  // evaluate + encode per append event per watch group
}

// New returns a server over the catalog.
func New(cat *provrpq.Catalog, opts Options) *Server {
	s := &Server{
		cat:           cat,
		timeout:       opts.Timeout,
		maxInFlight:   opts.MaxInFlight,
		maxBodyBytes:  opts.MaxBodyBytes,
		flushRecords:  opts.StreamFlushRecords,
		flushInterval: opts.StreamFlushInterval,
		maxRecord:     opts.MaxRecordBytes,
		maxWatchers:   opts.MaxWatchers,
		maxStreams:    opts.MaxStreams,
		watchGroups:   map[watchKey]*watchGroup{},
		reg:           opts.Metrics,
		log:           opts.Logger,
		start:         time.Now(),
	}
	if s.timeout == 0 {
		s.timeout = DefaultTimeout
	}
	if s.maxInFlight == 0 {
		s.maxInFlight = DefaultMaxInFlight
	}
	if s.maxInFlight > 0 {
		s.sem = make(chan struct{}, s.maxInFlight)
	}
	if s.maxBodyBytes == 0 {
		s.maxBodyBytes = DefaultMaxBodyBytes
	}
	if s.flushRecords <= 0 {
		s.flushRecords = DefaultStreamFlushRecords
	}
	if s.flushInterval == 0 {
		s.flushInterval = DefaultStreamFlushInterval
	}
	if s.maxRecord <= 0 {
		s.maxRecord = DefaultMaxRecordBytes
	}
	if s.maxWatchers == 0 {
		s.maxWatchers = DefaultMaxWatchers
	}
	if s.maxStreams == 0 {
		s.maxStreams = DefaultMaxStreams
	}
	if s.reg == nil {
		s.reg = metrics.Default()
	}
	s.mRequests = s.reg.Counter("provrpq_http_requests_total",
		"Requests reaching the JSON routes, admitted or not.")
	s.mRejected = s.reg.Counter("provrpq_http_rejected_total",
		"Requests turned away by the in-flight limit (a subset of requests_total).")
	s.mFailed = s.reg.Counter("provrpq_http_failed_total",
		"Error responses from routed handlers (rejections and timeouts excluded).")
	s.mRouteTotal = s.reg.CounterVec("provrpq_http_route_requests_total",
		"Responses by route and status code, every route included.", "route", "code")
	s.mLatency = s.reg.HistogramVec("provrpq_http_request_seconds",
		"Request latency by route, as written to the wire.",
		metrics.LatencyBuckets, "route")
	s.mRunGen = s.reg.GaugeVec("provrpq_run_generation",
		"Growth batches applied to each served run (synced at scrape time).", "run")
	s.mIngestRecords = s.reg.CounterVec("provrpq_ingest_records_total",
		"NDJSON streaming-ingest records accepted, by kind (node, edge) — the sustained ingest rate.", "kind")
	s.mIngestBatches = s.reg.Counter("provrpq_ingest_batches_total",
		"Streaming-ingest groups committed through the append path (records/batches is the grouping factor).")
	s.mWatchDeltas = s.reg.Counter("provrpq_watch_deltas_total",
		"Delta events written to standing-query (SSE) subscribers.")
	s.mWatchDropped = s.reg.Counter("provrpq_watch_dropped_total",
		"Standing-query subscribers dropped for lagging behind the append rate.")
	s.mWatchRebuilds = s.reg.Counter("provrpq_watch_rebuilds_total",
		"Rebuilds of a watch group's retained trie and state vectors (the first event's included).")
	s.mWatchSeconds = s.reg.Histogram("provrpq_watch_delta_seconds",
		"Time to evaluate and encode one append event's delta, once per watch group.", metrics.LatencyBuckets)
	// Callback metrics sample live state at scrape time; re-registration
	// rebinds them, so the newest server over a shared registry wins.
	s.reg.Func("provrpq_http_in_flight", "Handlers currently doing work (a slot is held until its handler returns).",
		metrics.KindGauge, func() float64 { return float64(s.inFlight.Load()) })
	s.reg.Func("provrpq_watchers", "Open standing-query (SSE) streams.",
		metrics.KindGauge, func() float64 { return float64(s.watchers.Load()) })
	s.reg.Func("provrpq_watch_groups", "Watch groups: distinct (run, query) pairs with an open stream.",
		metrics.KindGauge, func() float64 {
			s.watchMu.Lock()
			defer s.watchMu.Unlock()
			return float64(len(s.watchGroups))
		})
	s.reg.Func("provrpq_ingest_streams", "Open NDJSON ingest streams.",
		metrics.KindGauge, func() float64 { return float64(s.streams.Load()) })
	s.reg.Func("provrpq_uptime_seconds", "Seconds since the server was created.",
		metrics.KindGauge, func() float64 { return time.Since(s.start).Seconds() })
	s.reg.Func("provrpq_catalog_specs", "Registered specifications.",
		metrics.KindGauge, func() float64 { return float64(s.cat.Stats().Specs) })
	s.reg.Func("provrpq_catalog_runs", "Registered runs.",
		metrics.KindGauge, func() float64 { return float64(s.cat.Stats().Runs) })
	s.reg.Func("provrpq_plan_cache_hits_total", "Compiled-plan cache hits.",
		metrics.KindCounter, func() float64 { return float64(s.cat.Stats().PlanCache.Hits) })
	s.reg.Func("provrpq_plan_cache_misses_total", "Compiled-plan cache misses.",
		metrics.KindCounter, func() float64 { return float64(s.cat.Stats().PlanCache.Misses) })
	s.reg.Func("provrpq_plan_cache_evictions_total", "Compiled-plan cache evictions.",
		metrics.KindCounter, func() float64 { return float64(s.cat.Stats().PlanCache.Evictions) })
	s.reg.Func("provrpq_plan_cache_plans", "Resident compiled plans.",
		metrics.KindGauge, func() float64 { return float64(s.cat.Stats().PlanCache.Plans) })
	revision := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				revision = kv.Value
			}
		}
	}
	s.reg.GaugeVec("provrpq_build_info",
		"Constant 1, labeled with the serving binary's Go version and VCS revision (empty when not stamped).",
		"go_version", "vcs_revision").With(runtime.Version(), revision).Set(1)
	return s
}

// Handler returns the fully-wrapped HTTP handler: JSON routes behind the
// in-flight limiter, which also puts the request deadline on their context,
// with /healthz outside so liveness probes succeed even under overload.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/specs", s.handleRegisterSpec)
	mux.HandleFunc("GET /v1/specs", s.handleListSpecs)
	mux.HandleFunc("POST /v1/runs", s.handleAddRun)
	mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	mux.HandleFunc("POST /v1/runs/{name}/edges", s.handleAppendEdges)
	mux.HandleFunc("POST /v1/runs/{name}/compact", s.handleCompactRun)
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("POST /v1/explain", s.handleExplain)
	mux.HandleFunc("POST /v1/pairwise", s.handlePairwise)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, http.StatusNotFound, "not_found", "no such endpoint: "+r.URL.Path)
	})

	// A request holds its in-flight slot until its handler returns, so the
	// bound limits real concurrent work. Evaluate and batch return at their
	// next block of pairs once the deadline or a client's hang-up ends the
	// request's context; other routes have no server deadline.
	limited := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mRequests.Inc()
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.mRejected.Inc()
				// Not routed through writeError: a rejection is tallied in
				// rejected, never double-counted in failed.
				s.writeJSON(w, http.StatusTooManyRequests, errorBody{errorDetail{"overloaded",
					fmt.Sprintf("server is at its in-flight request limit (%d)", s.maxInFlight)}})
				return
			}
		}
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		if s.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
		mux.ServeHTTP(w, r)
	})

	// healthz and metrics live outside the limiter and the deadline:
	// probes must succeed and metrics must stay scrapeable precisely when
	// the server is saturated — both are reads of atomic state. The two
	// long-lived routes — NDJSON ingest streams and standing-query SSE
	// subscriptions — live here too: the deadline would end them
	// mid-stream, and MaxBytesReader would cap an ingest stream's total
	// size; each carries its own bound (MaxStreams / MaxWatchers,
	// per-record limits) instead.
	outer := http.NewServeMux()
	outer.HandleFunc("GET /healthz", s.handleHealth)
	outer.HandleFunc("GET /metrics", s.handleMetrics)
	outer.HandleFunc("POST /v1/runs/{name}/stream", s.handleStreamRun)
	outer.HandleFunc("POST /v1/watch", s.handleWatch)
	outer.Handle("/", limited)
	return s.instrument(outer)
}

// instrument wraps the whole route tree with per-request accounting:
// the (route, status) counter and per-route latency histogram, the
// X-Request-Id header, and one structured log line when a logger is
// configured. It observes the response as written to the wire once the
// handler has returned: evaluate and batch answer 503 timeout when their
// deadline passes; other routes have no server deadline.
func (s *Server) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("%d-%06d", s.start.UnixMilli(), s.reqSeq.Add(1))
		w.Header().Set("X-Request-Id", id)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		begin := time.Now()
		h.ServeHTTP(rec, r)
		d := time.Since(begin)
		route := routeOf(r)
		s.mRouteTotal.With(route, strconv.Itoa(rec.status)).Inc()
		s.mLatency.With(route).Observe(d.Seconds())
		if s.log != nil {
			s.log.Info("request",
				"req_id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"route", route,
				"status", rec.status,
				"bytes", rec.bytes,
				"duration_ms", float64(d.Microseconds())/1000,
				"remote", r.RemoteAddr)
		}
	})
}

// statusRecorder captures the status code and body size a handler chain
// wrote, so instrumentation reports the wire response.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status, r.wrote = code, true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer so SSE handlers still see an
// http.Flusher through the instrumentation wrapper (an embedded interface
// does not promote optional methods).
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routeOf maps a request to a bounded route label: named routes keep
// their pattern (path parameters collapsed to their placeholder, so one
// run name per request cannot grow the label space), everything else is
// "other".
func routeOf(r *http.Request) string {
	p := r.URL.Path
	if strings.HasPrefix(p, "/v1/runs/") {
		switch {
		case strings.HasSuffix(p, "/edges"):
			return r.Method + " /v1/runs/{name}/edges"
		case strings.HasSuffix(p, "/compact"):
			return r.Method + " /v1/runs/{name}/compact"
		case strings.HasSuffix(p, "/stream"):
			return r.Method + " /v1/runs/{name}/stream"
		}
		return "other"
	}
	switch p {
	case "/v1/specs", "/v1/runs", "/v1/evaluate", "/v1/explain", "/v1/pairwise",
		"/v1/batch", "/v1/snapshot", "/v1/watch", "/healthz", "/metrics":
		return r.Method + " " + p
	}
	return "other"
}

// ---- request / response shapes ----

type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type registerSpecRequest struct {
	Name string          `json:"name"`
	Spec json.RawMessage `json:"spec"`
}

type specInfo struct {
	Name string   `json:"name"`
	Size int      `json:"size"`
	Tags []string `json:"tags"`
	Runs []string `json:"runs,omitempty"`
}

type deriveRequest struct {
	Seed              int64          `json:"seed"`
	TargetEdges       int            `json:"target_edges"`
	MaxRecursionDepth int            `json:"max_recursion_depth"`
	FavorModule       string         `json:"favor_module"`
	FavorModules      []string       `json:"favor_modules"`
	FavorCaps         map[string]int `json:"favor_caps"`
}

type addRunRequest struct {
	Name   string          `json:"name"`
	Spec   string          `json:"spec"`
	Run    json.RawMessage `json:"run"`
	Derive *deriveRequest  `json:"derive"`
}

type runInfo struct {
	Name  string `json:"name"`
	Spec  string `json:"spec"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
	// Version counts the growth batches applied to the run (stable across
	// restarts of a durable catalog).
	Version int `json:"version"`
}

// The append request body is one growth batch in the run-upload wire
// shapes, {"nodes": [...], "edges": [...]}, decoded directly by the run
// codec.
type appendResponse struct {
	Run           string `json:"run"`
	Spec          string `json:"spec"`
	Version       int    `json:"version"`
	Nodes         int    `json:"nodes"`
	Edges         int    `json:"edges"`
	AppendedNodes int    `json:"appended_nodes"`
	AppendedEdges int    `json:"appended_edges"`
	Frontier      int    `json:"frontier"`
}

type evaluateRequest struct {
	Run       string `json:"run"`
	Query     string `json:"query"`
	CountOnly bool   `json:"count_only"`
	// Limit/Offset page the pair list: pairs carries the window
	// [offset, offset+limit) of the full result, whose size is always
	// reported in total (and count). Unset limit returns every pair, as
	// before paging existed.
	Limit  *int `json:"limit,omitempty"`
	Offset int  `json:"offset,omitempty"`
}

type evaluateResponse struct {
	Run   string `json:"run"`
	Query string `json:"query"`
	Safe  bool   `json:"safe"`
	// Strategy is the plan that actually answered: "rpl", "optrpl" or
	// "seeded" for safe queries, "decompose" for the unsafe safe-subtree
	// decomposition.
	Strategy string `json:"strategy"`
	// Count and Total both report the full match count — Count predates
	// paging and keeps its meaning for old clients; pagers read Total and
	// Offset to walk the windows.
	Count  int `json:"count"`
	Total  int `json:"total"`
	Offset int `json:"offset,omitempty"`
	// "pairs" follows (encode.go) unless count_only asked for no list: a
	// requested window that is empty — an offset at or past the end — is
	// "pairs": [], which a pager walking windows must see, not a missing
	// member or an error.
}

type explainRequest struct {
	Run   string `json:"run"`
	Query string `json:"query"`
}

type planCostsJSON struct {
	RPL    float64 `json:"rpl"`
	OptRPL float64 `json:"optrpl"`
	Seeded float64 `json:"seeded"`
}

type explainResponse struct {
	Run      string `json:"run"`
	Query    string `json:"query"`
	Safe     bool   `json:"safe"`
	Strategy string `json:"strategy"`
	SeedTag  string `json:"seed_tag,omitempty"`
	// SeedCount accompanies every reported seed tag — zero is meaningful
	// (the required tag is absent from the run, so the query matches
	// nothing), so it must not be dropped by omitempty.
	SeedCount       *int           `json:"seed_count,omitempty"`
	Reverse         bool           `json:"reverse,omitempty"`
	Costs           *planCostsJSON `json:"costs,omitempty"`
	SafeSubtrees    []string       `json:"safe_subtrees,omitempty"`
	RelationalNodes int            `json:"relational_nodes,omitempty"`
}

type pairwiseRequest struct {
	Run   string `json:"run"`
	Query string `json:"query"`
	From  string `json:"from"`
	To    string `json:"to"`
}

type pairwiseResponse struct {
	Run   string `json:"run"`
	Query string `json:"query"`
	Safe  bool   `json:"safe"`
	Match bool   `json:"match"`
}

type batchRequest struct {
	Runs      []string `json:"runs"`
	Queries   []string `json:"queries"`
	CountOnly bool     `json:"count_only"`
}

// batchItem is one element of a batch response's "results"; a non-empty pair
// list follows as "pairs" (encode.go) unless count_only asked for none.
type batchItem struct {
	Run   string `json:"run"`
	Query string `json:"query"`
	Count int    `json:"count"`
	Error string `json:"error,omitempty"`
}

type snapshotResponse struct {
	Durable bool              `json:"durable"`
	Dir     string            `json:"dir,omitempty"`
	Specs   []string          `json:"specs,omitempty"`
	Runs    map[string]string `json:"runs,omitempty"`    // run -> spec
	Appends map[string]int    `json:"appends,omitempty"` // run -> committed growth batches
}

// ---- handlers ----

// handleHealth answers liveness. A catalog whose durable store has
// wedged — an ambiguous commit failure latched it read-only — reports
// 503 "wedged": the process is up but must be restarted (reopening the
// store re-reads the committed manifest) before it accepts mutations
// again, and a probe that kept reporting ok would hide that.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if st := s.cat.Store(); st != nil && st.Wedged() {
		// Not writeError: a degraded health probe is not a handler failure.
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "wedged"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the Prometheus text exposition of the server's
// registry — with the default registry, that is every instrumented
// layer of the process: HTTP routes, evaluation strategies, planner
// timings, store durability counters, boot timings.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.syncRunGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// syncRunGauges refreshes the per-run generation gauges from the
// catalog. Scrape-time sync keeps the catalog free of metrics coupling;
// a run deleted from a future catalog would leave a stale gauge, but
// runs are never deleted today.
func (s *Server) syncRunGauges() {
	for _, name := range s.cat.RunNames() {
		if v, ok := s.cat.RunVersion(name); ok {
			s.mRunGen.With(name).Set(float64(v))
		}
	}
}

// handleSnapshot reports the durable store's committed contents — what a
// restart of the daemon would come back with. A catalog without a store
// answers {"durable": false} so clients can probe for durability.
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	st := s.cat.Store()
	if st == nil {
		s.writeJSON(w, http.StatusOK, snapshotResponse{Durable: false})
		return
	}
	snap, err := st.Snapshot()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "store_failed", err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, snapshotResponse{
		Durable: true, Dir: snap.Dir, Specs: snap.Specs, Runs: snap.Runs, Appends: snap.Appends,
	})
}

func (s *Server) handleRegisterSpec(w http.ResponseWriter, r *http.Request) {
	var req registerSpecRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Name == "" || len(req.Spec) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", `"name" and "spec" are required`)
		return
	}
	spec := &provrpq.Spec{}
	if err := spec.UnmarshalJSON(req.Spec); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_spec", err.Error())
		return
	}
	if err := s.cat.RegisterSpec(req.Name, spec); err != nil {
		s.writeCatalogError(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, specInfo{Name: req.Name, Size: spec.Size(), Tags: spec.Tags()})
}

func (s *Server) handleListSpecs(w http.ResponseWriter, _ *http.Request) {
	var out []specInfo
	for _, name := range s.cat.SpecNames() {
		spec, ok := s.cat.Spec(name)
		if !ok {
			continue
		}
		out = append(out, specInfo{
			Name: name,
			Size: spec.Size(),
			Tags: spec.Tags(),
			Runs: s.cat.RunsOfSpec(name),
		})
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"specs": out})
}

func (s *Server) handleAddRun(w http.ResponseWriter, r *http.Request) {
	var req addRunRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Name == "" || req.Spec == "" {
		s.writeError(w, http.StatusBadRequest, "bad_request", `"name" and "spec" are required`)
		return
	}
	if (len(req.Run) == 0) == (req.Derive == nil) {
		s.writeError(w, http.StatusBadRequest, "bad_request", `exactly one of "run" and "derive" is required`)
		return
	}
	spec, ok := s.cat.Spec(req.Spec)
	if !ok {
		s.writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("specification %q is not registered", req.Spec))
		return
	}
	var run *provrpq.Run
	if req.Derive != nil {
		var err error
		run, err = s.cat.DeriveRun(req.Name, req.Spec, provrpq.DeriveOptions{
			Seed:              req.Derive.Seed,
			TargetEdges:       req.Derive.TargetEdges,
			MaxRecursionDepth: req.Derive.MaxRecursionDepth,
			FavorModule:       req.Derive.FavorModule,
			FavorModules:      req.Derive.FavorModules,
			FavorCaps:         req.Derive.FavorCaps,
		})
		if err != nil {
			switch {
			case errors.Is(err, provrpq.ErrAlreadyRegistered):
				s.writeError(w, http.StatusConflict, "conflict", err.Error())
			case errors.Is(err, provrpq.ErrStoreFailed):
				s.writeError(w, http.StatusInternalServerError, "store_failed", err.Error())
			default:
				s.writeError(w, http.StatusBadRequest, "bad_derive", err.Error())
			}
			return
		}
	} else {
		var err error
		run, err = provrpq.DecodeRun(spec, req.Run)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_run", err.Error())
			return
		}
		if err := s.cat.AddRun(req.Name, req.Spec, run); err != nil {
			s.writeCatalogError(w, err)
			return
		}
	}
	s.writeJSON(w, http.StatusCreated, runInfo{
		Name: req.Name, Spec: req.Spec, Nodes: run.NumNodes(), Edges: run.NumEdges(),
	})
}

func (s *Server) handleListRuns(w http.ResponseWriter, _ *http.Request) {
	var out []runInfo
	for _, name := range s.cat.RunNames() {
		run, ok := s.cat.Run(name)
		if !ok {
			continue
		}
		specName, _ := s.cat.RunSpecName(name)
		version, _ := s.cat.RunVersion(name)
		out = append(out, runInfo{Name: name, Spec: specName, Nodes: run.NumNodes(), Edges: run.NumEdges(), Version: version})
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"runs": out})
}

// handleCompactRun folds the named run's committed growth batches into a
// single stored base payload, bounding the append log a long-lived run
// accumulates (and the work a restart replays). The served run and its
// version are untouched; the response carries that version.
func (s *Server) handleCompactRun(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.cat.RunSpecName(name); !ok {
		s.writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("run %q is not registered", name))
		return
	}
	if s.cat.Store() == nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "catalog has no durable store; nothing to compact")
		return
	}
	version, err := s.cat.CompactRun(name)
	if err != nil {
		if errors.Is(err, provrpq.ErrStoreFailed) {
			s.writeError(w, http.StatusInternalServerError, "store_failed", err.Error())
		} else {
			s.writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		}
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"run": name, "version": version, "compacted": true})
}

// handleAppendEdges grows a run by one batch: POST /v1/runs/{name}/edges
// with the batch as the body. The growth is durable before the response on
// a catalog with a store, and the run's engine is swapped atomically — the
// very next evaluate sees the grown run.
//
// An append has no server deadline and is not naturally idempotent (an
// edges-only batch applied twice duplicates its edges), so a client that may
// retry — after its own timeout the server can still have finished the
// commit — passes the ?expected_version=N query parameter with the version it
// grew the batch against; a mismatch answers 409 conflict with the current
// version instead of double-applying.
func (s *Server) handleAppendEdges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	expected := -1
	if ev := r.URL.Query().Get("expected_version"); ev != "" {
		n, err := strconv.Atoi(ev)
		if err != nil || n < 0 {
			s.writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("expected_version %q must be a non-negative integer", ev))
			return
		}
		expected = n
	}
	specName, ok := s.cat.RunSpecName(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("run %q is not registered", name))
		return
	}
	spec, ok := s.cat.Spec(specName)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, "internal", fmt.Sprintf("run %q is bound to unknown specification %q", name, specName))
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeBodyError(w, err)
		return
	}
	batch, err := provrpq.DecodeBatch(spec, body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_batch", err.Error())
		return
	}
	if batch.NumNodes() == 0 && batch.NumEdges() == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_batch", "empty batch: provide nodes and/or edges")
		return
	}
	var res provrpq.AppendResult
	if expected >= 0 {
		res, err = s.cat.AppendEdgesCAS(name, batch, expected)
	} else {
		res, err = s.cat.AppendEdges(name, batch)
	}
	if err != nil {
		switch {
		case errors.Is(err, provrpq.ErrVersionMismatch):
			s.writeError(w, http.StatusConflict, "conflict", err.Error())
		case errors.Is(err, provrpq.ErrStoreFailed):
			s.writeError(w, http.StatusInternalServerError, "store_failed", err.Error())
		default:
			s.writeError(w, http.StatusBadRequest, "bad_batch", err.Error())
		}
		return
	}
	s.writeJSON(w, http.StatusOK, appendResponse{
		Run:           name,
		Spec:          specName,
		Version:       res.Version,
		Nodes:         res.Run.NumNodes(),
		Edges:         res.Run.NumEdges(),
		AppendedNodes: res.Stats.NewNodes,
		AppendedEdges: res.Stats.NewEdges,
		Frontier:      res.Stats.Frontier,
	})
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req evaluateRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	eng, q, ok := s.resolve(w, req.Run, req.Query)
	if !ok {
		return
	}
	if req.Offset < 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", `"offset" must be >= 0`)
		return
	}
	if req.Limit != nil && *req.Limit < 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", `"limit" must be >= 0`)
		return
	}
	if _, err := eng.IsSafe(q); err != nil {
		// Compilation failures (e.g. a query whose minimal DFA exceeds the
		// supported state count) are the client's query, not our evaluation.
		s.writeError(w, http.StatusBadRequest, "bad_query", err.Error())
		return
	}
	// A page is cut by the evaluation, not from its result: the count pass
	// gives the total and the window's rows before a pair is written. A
	// count is the count pass alone, a window of no pair.
	offset, limit := req.Offset, -1
	if req.CountOnly {
		offset, limit = 0, 0
	} else if req.Limit != nil {
		limit = *req.Limit
	}
	rows, rep, err := eng.EvaluateRows(r.Context(), q, offset, limit)
	if err != nil {
		s.writeEvalError(w, r, err)
		return
	}
	resp := evaluateResponse{
		Run: req.Run, Query: q.String(), Safe: rep.Safe,
		Strategy: strategyName(rep), Count: rows.Total(), Total: rows.Total(), Offset: req.Offset,
	}
	if req.CountOnly {
		s.writeJSON(w, http.StatusOK, resp)
		return
	}
	pw := pairWriter{run: eng.Run(), buf: appendHead(nil, resp)}
	if err := pw.rows(r.Context(), rows); err != nil {
		s.writeEvalError(w, r, err)
		return
	}
	writeBody(w, append(pw.buf, '\n'))
}

// writeEvalError answers a failed evaluation. Once the request's context has
// ended, that is what failed it: evaluate and batch answer 503 timeout when
// the server's deadline passed — like a rejection, not tallied in failed —
// and nothing when the client is gone.
func (s *Server) writeEvalError(w http.ResponseWriter, r *http.Request, err error) {
	switch r.Context().Err() {
	case nil:
		s.writeError(w, http.StatusInternalServerError, "evaluate_failed", err.Error())
	case context.DeadlineExceeded:
		s.writeJSON(w, http.StatusServiceUnavailable,
			errorBody{errorDetail{"timeout", "request exceeded the server's handling deadline"}})
	}
}

// handleExplain returns the evaluation plan for (run, query) without
// evaluating it: the planner's strategy choice, seed tag and cost
// estimates for safe queries, the safe-subtree decomposition for unsafe
// ones.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req explainRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	eng, q, ok := s.resolve(w, req.Run, req.Query)
	if !ok {
		return
	}
	rep, err := eng.Explain(q)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_query", err.Error())
		return
	}
	resp := explainResponse{
		Run:             req.Run,
		Query:           rep.Query,
		Safe:            rep.Safe,
		Strategy:        strategyName(rep),
		SeedTag:         rep.SeedTag,
		Reverse:         rep.Reverse,
		SafeSubtrees:    rep.SafeSubtrees,
		RelationalNodes: rep.RelationalNodes,
	}
	if rep.SeedTag != "" {
		count := rep.SeedCount
		resp.SeedCount = &count
	}
	if rep.Safe {
		resp.Costs = &planCostsJSON{RPL: rep.CostRPL, OptRPL: rep.CostOptRPL, Seeded: rep.CostSeeded}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// strategyName renders a plan report's strategy for the wire: the unsafe
// decomposition has no single all-pairs strategy, so it reports
// "decompose" rather than Auto's enum name.
func strategyName(rep *provrpq.PlanReport) string {
	if rep.Decomposed {
		return "decompose"
	}
	return rep.Strategy.String()
}

func (s *Server) handlePairwise(w http.ResponseWriter, r *http.Request) {
	var req pairwiseRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	eng, q, ok := s.resolve(w, req.Run, req.Query)
	if !ok {
		return
	}
	u, uok := eng.Run().NodeByName(req.From)
	v, vok := eng.Run().NodeByName(req.To)
	if !uok || !vok {
		missing := req.From
		if uok {
			missing = req.To
		}
		s.writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("node %q not in run %q", missing, req.Run))
		return
	}
	safe, err := eng.IsSafe(q)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_query", err.Error())
		return
	}
	match, err := eng.Pairwise(q, u, v)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "evaluate_failed", err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, pairwiseResponse{Run: req.Run, Query: q.String(), Safe: safe, Match: match})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", `"queries" must be non-empty`)
		return
	}
	queries := make([]*provrpq.Query, len(req.Queries))
	for i, qs := range req.Queries {
		q, err := provrpq.ParseQuery(qs)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_query", fmt.Sprintf("query %d (%q): %v", i, qs, err))
			return
		}
		queries[i] = q
	}
	limit := -1
	if req.CountOnly {
		limit = 0 // the count pass alone
	}
	results := s.cat.EvaluateBatchRows(r.Context(), req.Runs, queries, 0, limit)
	buf := []byte(`{"results":[`)
	for _, res := range results {
		item := batchItem{Run: res.Run, Query: res.Query}
		if res.Err != nil {
			item.Error = res.Err.Error()
		} else {
			item.Count = res.Rows.Total()
		}
		run, ok := s.cat.Run(res.Run)
		pw := pairWriter{run: run, buf: appendHead(buf, item)}
		if !ok || item.Count == 0 || req.CountOnly {
			pw.buf = append(pw.buf, '}')
		} else if err := pw.rows(r.Context(), res.Rows); err != nil {
			s.writeEvalError(w, r, err)
			return
		}
		buf = append(pw.buf, ',')
	}
	if err := r.Context().Err(); err != nil { // some cells were not evaluated
		s.writeEvalError(w, r, err)
		return
	}
	writeBody(w, append(bytes.TrimSuffix(buf, []byte{','}), "]}\n"...))
}

// resolve maps (run name, query string) to an engine and parsed query,
// answering 404/400 itself on failure.
func (s *Server) resolve(w http.ResponseWriter, runName, queryStr string) (*provrpq.Engine, *provrpq.Query, bool) {
	if runName == "" || queryStr == "" {
		s.writeError(w, http.StatusBadRequest, "bad_request", `"run" and "query" are required`)
		return nil, nil, false
	}
	eng, err := s.cat.Engine(runName)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "not_found", err.Error())
		return nil, nil, false
	}
	q, err := provrpq.ParseQuery(queryStr)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_query", err.Error())
		return nil, nil, false
	}
	return eng, q, true
}

func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		if isBodyLimit(err) {
			s.writeBodyError(w, err)
			return false
		}
		s.writeError(w, http.StatusBadRequest, "bad_request", "invalid request body: "+err.Error())
		return false
	}
	return true
}

// isBodyLimit reports whether a body-read failure is the MaxBytesReader
// limit firing — the client's request is too large, which must surface as
// 413 request_too_large, never a generic 400/500 (a client cannot fix what
// it cannot distinguish).
func isBodyLimit(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// writeBodyError answers a failed request-body read: 413 request_too_large
// when the body limit fired, otherwise the client's generic 400.
func (s *Server) writeBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.writeError(w, http.StatusRequestEntityTooLarge, "request_too_large",
			fmt.Sprintf("request body exceeds the server's %d-byte limit", mbe.Limit))
		return
	}
	s.writeError(w, http.StatusBadRequest, "bad_request", "reading request body: "+err.Error())
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// writeBody answers 200 with a JSON body encoded already.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// writeCatalogError maps a catalog registration error: a duplicate name
// is a 409 conflict, a failed store persist is the server's 500 (nothing
// was registered; the client may retry), anything else is the client's
// bad input.
func (s *Server) writeCatalogError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, provrpq.ErrAlreadyRegistered):
		s.writeError(w, http.StatusConflict, "conflict", err.Error())
	case errors.Is(err, provrpq.ErrStoreFailed):
		s.writeError(w, http.StatusInternalServerError, "store_failed", err.Error())
	default:
		s.writeError(w, http.StatusBadRequest, "bad_request", err.Error())
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, message string) {
	s.mFailed.Inc()
	s.writeJSON(w, status, errorBody{errorDetail{code, message}})
}
