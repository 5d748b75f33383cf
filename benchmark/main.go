// Command benchmark is the repository's one served-RPQ benchmark: it builds
// a durable catalog in a data dir of its own, serves the real
// internal/server handler on a loopback TCP port inside this process,
// drives it with at most two client connections per role, checks every
// answer, and prints every metric by name with its unit. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"provrpq/internal/metrics"
	"provrpq/internal/plan"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
	jsonPath string
}

func main() {
	var o options
	var trace int
	var gen string
	var compare bool
	flag.StringVar(&o.workload, "workload", "all", "workload to run: one of the six names, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the request stream (runs and pools are frozen fixtures)")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window; a warm-up of a fifth of it runs first")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: shorter window plus the peeled per-layer replay")
	flag.BoolVar(&o.quick, "quick", false, "tiny runs and no frozen-count checks: the smoke test's mode, not a measurement")
	flag.StringVar(&o.outDir, "out", "out", "directory for data dirs (removed on exit) and trace files")
	flag.StringVar(&o.jsonPath, "json", "", "append one JSON line per run to this file (the input of -compare)")
	flag.StringVar(&gen, "genpools", "", "regenerate the frozen query pools into this file and exit")
	flag.BoolVar(&compare, "compare", false, "compare two -json files: benchmark -compare a.jsonl b.jsonl")
	spec := flag.Bool("benchjson", false, "print BENCHMARK.json as the tables in defs.go define it and exit")
	flag.Parse()
	o.trace = trace != 0

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := func() error {
		switch {
		case *spec:
			_, err := os.Stdout.Write(benchmarkJSON())
			return err
		case gen != "":
			return genPools(gen)
		case compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare takes two result files")
			}
			return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
		return run(ctx, o)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// result is one run of one workload, as printed on the last line of
// standard output and appended to the -json file.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// endToEnd holds the end-to-end values of every run, traced or not (a
	// traced run's Metrics are the layer metrics).
	endToEnd map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is a result with its context, one line of a -json file.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Header   map[string]string `json:"header"`
	result
}

func run(ctx context.Context, o options) error {
	runtime.GOMAXPROCS(maxProcs)
	var names []string
	if o.workload == "all" {
		for _, wl := range workloads {
			names = append(names, wl.Name)
		}
	} else if findWorkload(o.workload) == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	} else {
		names = []string{o.workload}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	header := machineHeader(o)
	printHeader(header)
	var last *result
	for _, name := range names {
		res, err := runWorkload(ctx, findWorkload(name), o)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if o.jsonPath != "" {
			rec := record{Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Header: header, result: *res}
			if err := appendJSONLine(o.jsonPath, rec); err != nil {
				return err
			}
		}
		last = res
		if !res.Correct {
			break
		}
	}
	// The driver's contract: the last line of standard output is the
	// result of the (one) workload run.
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !last.Correct {
		return fmt.Errorf("%d of %d operations failed or a correctness check did not pass", last.Failed, last.Attempted)
	}
	return nil
}

// benchmarkJSON renders the root BENCHMARK.json from the tables in defs.go,
// so the file the driver reads and the metrics the program prints cannot
// drift apart (the smoke test compares them).
func benchmarkJSON() []byte {
	type wlJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	better := func(m metricDef) string {
		if m.Higher {
			return "higher"
		}
		return "lower"
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wlJSON    `json:"workloads"`
		EndToEnd   []e2eJSON   `json:"end_to_end"`
		PerLayer   []layerJSON `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, wl := range workloads {
		doc.Workloads = append(doc.Workloads, wlJSON{wl.Name, wl.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{m.Name, m.Unit, better(m), m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{m.Name, m.Unit, better(m)})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return append(raw, '\n')
}

func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counterSnapshot reads the process-wide counters a window brackets.
type counterSnapshot struct {
	mem                  runtime.MemStats
	cacheHits, cacheMiss uint64
	fsyncs, groups, ops  float64
	appendBytes, dropped float64
	gcCPU, totalCPU      float64
}

func (s *session) snapshotCounters() counterSnapshot {
	var c counterSnapshot
	runtime.ReadMemStats(&c.mem)
	st := s.sv.cat.Stats().PlanCache
	c.cacheHits, c.cacheMiss = st.Hits, st.Misses
	c.fsyncs = registryValue("provrpq_store_fsyncs_total")
	c.groups = registryValue("provrpq_store_group_commits_total")
	c.ops = registryValue("provrpq_store_group_committed_appends_total")
	c.appendBytes = registryValue("provrpq_store_append_bytes_total")
	c.dropped = registryValue("provrpq_watch_dropped_total")
	c.gcCPU, c.totalCPU = cpuSeconds()
	return c
}

// registryValue reads one unlabelled series of the program's own metrics
// registry (the one /metrics exposes).
func registryValue(name string) float64 {
	for _, fam := range metrics.Default().Snapshot() {
		if fam.Name == name {
			total := 0.0
			for _, s := range fam.Samples {
				total += s.Value
			}
			return total
		}
	}
	return 0
}

// runWorkload is one run: fixture, timed set-ups, correctness gate, the
// window, the end-of-run checks, the boot cycle and — traced — the peeled
// replay.
func runWorkload(ctx context.Context, wl *workloadDef, o options) (*result, error) {
	fmt.Printf("\n== workload %s (seed %d, %g s window, trace %v)\n", wl.Name, o.seed, o.seconds, o.trace)
	began := time.Now()
	fx, err := buildFixture(wl, o.quick)
	if err != nil {
		return nil, err
	}
	fixtureS := time.Since(began).Seconds()
	for _, name := range fx.runOrder {
		rf := fx.runs[name]
		fmt.Printf("run %-8s %s seed=%d nodes=%d edges=%d base_nodes=%d batches=%d\n", name, rf.def.Dataset, rf.opts.Seed, rf.full.NumNodes(), rf.full.NumEdges(), rf.baseNodes, len(rf.batches))
	}
	fmt.Printf("pool size=%d hash=%s\n", len(fx.pool), fx.poolHash)

	sv, setupS, err := timedSetUps(fx, o.outDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(sv.dir)
	if err := sv.listen(); err != nil {
		return nil, err
	}
	defer sv.shutdown()
	s := &session{ctx: ctx, fx: fx, sv: sv, seed: o.seed, quick: o.quick,
		expect: map[*poolQuery]*expectation{}, pairwise: map[string][]*pairwiseTable{}}
	for i := range fx.pool {
		// Growing runs are verified at the end; until then their queries
		// only have the frozen count.
		s.expect[&fx.pool[i]] = &expectation{pq: &fx.pool[i], count: fx.pool[i].Count}
	}
	if err := s.verify(false); err != nil {
		return nil, err
	}

	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	// The planner's EWMA unit costs are process-wide and can flip a strategy
	// choice; every window starts from the static costs.
	plan.SharedTimings().Reset()
	runtime.GC()
	before := s.snapshotCounters()
	win, err := s.runWindow(seconds)
	if err != nil {
		return nil, err
	}
	after := s.snapshotCounters()
	// Twice: sync.Pool contents (net/http and encoding/json buffers) survive
	// one collection in the victim cache.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	correct := true
	fail := func(format string, args ...any) {
		correct = false
		fmt.Printf("CHECK FAILED: "+format+"\n", args...)
	}
	if fx.growing() != nil {
		if err := s.verify(true); err != nil {
			fail("%v", err)
		}
		if wl.Watch && correct {
			ex := s.expect[fx.role("watch")[0]]
			if win.watchPairs != ex.count || win.watchDigest != ex.digest {
				fail("watch: snapshot ∪ deltas holds %d pairs (digest %08x), the full evaluation at the final version %d (digest %08x)", win.watchPairs, win.watchDigest, ex.count, ex.digest)
			}
		}
	}
	var layers map[string]float64
	if o.trace && correct {
		if layers, err = s.tracedReplay(o, win, before, after); err != nil {
			return nil, err
		}
	}
	if err := sv.shutdown(); err != nil {
		return nil, err
	}
	bootS, openMS, replayed, err := s.bootCycle()
	if err != nil {
		fail("%v", err)
	}

	rec := win.rec
	if rec.failed > 0 {
		correct = false
		fmt.Printf("FAILED OPS: %d of %d; first: %s\n", rec.failed, rec.attempted, rec.firstErr)
	}
	res := &result{Correct: correct, Attempted: rec.attempted, Failed: rec.failed, Metrics: map[string]metricValue{}}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}

	// Human-readable report: the issue's named metrics for the op families
	// this workload issues, then the gated list.
	fmt.Printf("fixture_s %.3f s (harness: derive fixtures, load pool)\n", fixtureS)
	fmt.Printf("verify_s %.3f s (harness: %d oracle-checked rows)\n", s.verifyS, s.checks)
	for _, fam := range opFamilies {
		xs := rec.family(fam)
		if len(xs) == 0 {
			continue
		}
		fmt.Printf("%s_p50_ms %.4f ms  %s_p95_ms %.4f ms  p99 %.4f ms  max %.4f ms  (%d samples)\n", fam, median(xs), fam, quantile(xs, 0.95), quantile(xs, 0.99), maxOf(xs), len(xs))
		if fam == "evaluate" || fam == "pairwise" {
			fmt.Printf("%s_per_s %.2f 1/s (closed loop, %d clients)\n", fam, float64(len(xs))/win.seconds, wl.Readers)
		}
	}
	for _, series := range sortedKeys(rec.series) {
		xs := rec.series[series]
		fmt.Printf("series %-14s p50 %.4f ms  p95 %.4f ms  (%d samples)\n", series, median(xs), quantile(xs, 0.95), len(xs))
	}
	if len(rec.strategy) > 0 {
		fmt.Printf("strategies chosen:")
		for _, k := range sortedKeys(rec.strategy) {
			fmt.Printf(" %s=%d", k, rec.strategy[k])
		}
		fmt.Println()
	}
	if len(win.late) > 0 {
		fmt.Printf("open_loop: %d appends in the window, lateness p95 %.4f ms, lag drift %.4f ms\n", len(win.late), quantile(win.late, 0.95), lagDrift(win.lags))
	}
	fmt.Printf("failed_share %.6f ratio (%d of %d)\n", float64(rec.failed)/float64(max(rec.attempted, 1)), rec.failed, rec.attempted)

	gated := rec.family(wl.Gated)
	closed := len(rec.family("evaluate")) + len(rec.family("pairwise"))
	opsPerS := float64(closed) / win.seconds
	if wl.Readers == 0 {
		opsPerS = float64(len(rec.series["delta_lag"])) / win.seconds
	}
	e2e := map[string]float64{
		"op_p50_ms": median(gated),
		"ops_per_s": opsPerS, "boot_s": bootS, "heap_live_mb": heapMB, "setup_s": setupS,
	}
	res.endToEnd = e2e
	fmt.Printf("gated op: %s (%d samples)\n", wl.Gated, len(gated))
	list := endToEnd
	values := e2e
	if o.trace {
		layers["store.open_ms"] = openMS
		layers["store.replayed_batches"] = float64(replayed)
		list, values = perLayer, layers
		for _, m := range endToEnd {
			fmt.Printf("%s %.6g %s\n", m.Name, e2e[m.Name], m.Unit)
		}
	}
	for _, m := range list {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			fmt.Printf("CHECK FAILED: metric %s has no finite value\n", m.Name)
			v = 0
		}
		fmt.Printf("%s %.6g %s\n", m.Name, v, m.Unit)
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	fmt.Printf("run took %.1f s\n", time.Since(began).Seconds())
	return res, nil
}

// lagDrift is the median delta lag of the window's last quarter minus that
// of its first quarter: a growing backlog shows as a positive drift.
func lagDrift(lags []lagSample) float64 {
	if len(lags) < 8 {
		return 0
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i].atMS < lags[j].atMS })
	q := len(lags) / 4
	var first, last []float64
	for _, l := range lags[:q] {
		first = append(first, l.lagMS)
	}
	for _, l := range lags[len(lags)-q:] {
		last = append(last, l.lagMS)
	}
	return median(last) - median(first)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// machineHeader describes what ran and where: everything a reader needs to
// judge whether two result files are comparable.
func machineHeader(o options) map[string]string {
	h := map[string]string{
		"go":             runtime.Version(),
		"gomaxprocs":     fmt.Sprint(maxProcs),
		"engine_workers": fmt.Sprint(engineWorkers),
		"nproc":          fmt.Sprint(runtime.NumCPU()),
		"seed":           fmt.Sprint(o.seed),
		"fixture_seed":   fmt.Sprint(fixtureSeed),
		"quick":          fmt.Sprint(o.quick),
		"commit":         commitOf(),
		"cpu":            cpuModel(),
		"kernel":         kernelVersion(),
		"data_dir_fs":    fsType(o.outDir),
		"flush_policy":   "store default: group commit, one syncfs + one manifest write per group",
	}
	return h
}

func printHeader(h map[string]string) {
	var parts []string
	for _, k := range sortedKeys(h) {
		parts = append(parts, k+"="+h[k])
	}
	fmt.Println("# " + strings.Join(parts, " | "))
}

func commitOf() string {
	// The driver's checkout is not a git repository; a developer's is.
	for _, dir := range []string{".", ".."} {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if strings.HasPrefix(ref, "ref: ") {
			if b, err := os.ReadFile(filepath.Join(dir, ".git", ref[len("ref: "):])); err == nil {
				return strings.TrimSpace(string(b))
			}
		}
		return ref
	}
	return "unknown"
}
