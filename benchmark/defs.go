package main

import "time"

// Frozen inputs of the benchmark. Nothing in this file may depend on a
// value that differs between two commits of the program: run sizes, rates,
// pool bounds and op counts are constants, chosen once on the seed commit
// (see README.md, "Frozen sizes and rates").

// fixtureSeed derives every dataset run and every query pool. It is NOT
// the -seed argument: the driver compares runs made with different seeds,
// so -seed only shuffles the request stream (which query next, which node
// pair, which page offset) while the runs and the pools stay the fixtures
// of the benchmark, like the query set of a TPC kit.
const fixtureSeed = 20150413

const (
	// runSeconds is the measured window BENCHMARK.json asks the driver for.
	runSeconds = 10
	// engineWorkers and maxProcs pin the parallelism the program sees, so
	// two machines with different core counts measure the same configuration.
	engineWorkers = 2
	maxProcs      = 2
	// opDeadline is the per-op client deadline; exceeding it is a failed op.
	opDeadline = 5 * time.Second
	// warmupShare of the measured window runs before it, unrecorded.
	warmupShare = 0.2
	// batchNodes is the node count of one append batch of a growing run.
	batchNodes = 3
)

// runDef is one dataset run of a workload.
type runDef struct {
	Name    string
	Dataset string // "BioAID" or "QBLast"
	Edges   int    // derive.Options.TargetEdges
	Fork    bool   // Fig. 13g derivation: extend only the fork recursion
	// Grow > 0 serves the run as a node-prefix base and delivers its last
	// Grow*batchNodes nodes as that many append batches. It covers windows
	// of up to 15 s at the workload's rate (rate x 1.2 x 15, plus slack).
	Grow  int
	Class string // series suffix of evaluates on this run ("" = none)
}

// workloadDef is one traffic mix. Gated names the op family whose round
// trip is the workload's op_p50_ms/op_p95_ms: BENCHMARK.json holds one
// metric list for all six workloads, so each reports the latency of the op
// it was built to stress, and the other families it issues stay
// informational (see README.md).
type workloadDef struct {
	Name string
	Why  string
	Runs []runDef
	// Readers is the number of closed-loop reader clients; Cycle selects
	// what each one repeats.
	Readers int
	Cycle   string // "point", "scan", "dense" or ""
	// Pool is the pools.json role the cycle's evaluates rotate through.
	Pool string
	// AppendRate > 0 adds one open-loop writer at that many appends/s on
	// the workload's growing run; Watch adds one SSE subscriber on it.
	AppendRate float64
	Watch      bool
	Gated      string
	// ReplayReads and ReplayAppends are the op counts of the traced replay.
	ReplayReads, ReplayAppends int
	// SetupRepeats set-ups and BootRepeats reopen cycles are timed per run;
	// setup_s and boot_s are their medians. A set-up or a boot takes 8 to
	// 130 ms, so the counts are sized for about a second of measuring each:
	// fewer samples follow the host's minute-to-minute speed too closely.
	SetupRepeats, BootRepeats int
}

var workloads = []workloadDef{
	{
		Name: "read-point",
		Why:  "gated op: pairwise. 4 pairwise checks + 1 seeded selective evaluate per cycle on 16K-edge runs: server, parse, plan cache and planner do the work, core scans almost nothing",
		Runs: []runDef{
			{Name: "bio16k", Dataset: "BioAID", Edges: 16000},
			{Name: "qbl16k", Dataset: "QBLast", Edges: 16000},
		},
		Readers: 2, Cycle: "point", Pool: "selective",
		Gated:        "pairwise",
		ReplayReads:  500,
		SetupRepeats: 7, BootRepeats: 40,
	},
	{
		Name: "read-scan",
		Why:  "gated op: evaluate. count_only safe queries that require no tag, on small fork and standard runs: OptRPL label scans are nearly all of the request, HTTP and JSON almost none",
		Runs: []runDef{
			{Name: "biofork", Dataset: "BioAID", Edges: 350, Fork: true, Class: "fork"},
			{Name: "biostd", Dataset: "BioAID", Edges: 720, Class: "std"},
		},
		Readers: 2, Cycle: "scan", Pool: "scan",
		Gated:        "evaluate",
		ReplayReads:  40,
		SetupRepeats: 40, BootRepeats: 25,
	},
	{
		Name: "read-decompose",
		Why:  "gated op: evaluate. count_only unsafe random queries (paper Sec. V-E): safe subtrees by labels plus a relational remainder, another path through core than read-scan",
		Runs: []runDef{
			{Name: "bio300", Dataset: "BioAID", Edges: 300, Class: "bio"},
			{Name: "qbl400", Dataset: "QBLast", Edges: 400, Class: "qbl"},
		},
		Readers: 2, Cycle: "scan", Pool: "decompose",
		Gated:        "evaluate",
		ReplayReads:  40,
		SetupRepeats: 15, BootRepeats: 15,
	},
	{
		Name: "read-dense",
		Why:  "gated op: evaluate. Dense safe IFQs on a 4K-edge run, full pair lists alternating with limit=1000 pages: sort, name lookup, JSON encode and socket write outweigh the scan",
		Runs: []runDef{
			{Name: "bio4k", Dataset: "BioAID", Edges: 4000},
		},
		Readers: 2, Cycle: "dense", Pool: "dense",
		Gated:        "evaluate",
		ReplayReads:  40,
		SetupRepeats: 7, BootRepeats: 60,
	},
	{
		Name: "ingest-watch",
		Why:  "gated op: delta lag. One writer at a fixed 40 appends/s and one SSE watcher of a dense safe IFQ on a growing 6K-edge run: group commit, Grow and DeltaPairs set the lag",
		Runs: []runDef{
			{Name: "bio12k", Dataset: "BioAID", Edges: 12000, Grow: 760},
		},
		AppendRate: 40, Watch: true,
		Gated:         "delta_lag",
		ReplayAppends: 60,
		SetupRepeats:  20, BootRepeats: 25,
	},
	{
		Name: "mixed",
		Why:  "gated op: evaluate. One writer at a fixed 30 appends/s beside one closed-loop reader on the same 8K-edge run: every append drops the engine, so reads pay index and planner rebuilds",
		Runs: []runDef{
			{Name: "bio8k", Dataset: "BioAID", Edges: 8000, Grow: 570},
		},
		Readers: 1, Cycle: "point", Pool: "selective",
		AppendRate:  30,
		Gated:       "evaluate",
		ReplayReads: 300, ReplayAppends: 60,
		SetupRepeats: 15, BootRepeats: 40,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one reported metric. Higher marks the few where more is
// better; Bound is the share of the parent's median an end-to-end metric
// may worsen by (layer metrics have none).
type metricDef struct {
	Name, Unit string
	Higher     bool
	Bound      float64
}

// endToEnd is the list BENCHMARK.json gates, in its order. Every workload
// reports every one of them. The gated op's p95 is not in it: between two
// sets of ten runs of the same code its quartile spread reached 27 % on
// this box, above the largest bound the driver accepts, so p95, p99 and max
// stay printed and reported as e2e.* and client.* layer metrics.
var endToEnd = []metricDef{
	{Name: "op_p50_ms", Unit: "ms", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Higher: true, Bound: 0.25},
	{Name: "boot_s", Unit: "s", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MB", Bound: 0.1},
	{Name: "setup_s", Unit: "s", Bound: 0.25},
}

// opFamilies are the four operations users wait for; the issue's named
// end-to-end metrics (<family>_p50_ms, _p95_ms, _per_s) are printed per
// workload for the families it issues and reported as e2e.* layer metrics
// (0 where the workload does not issue the op).
var opFamilies = []string{"evaluate", "pairwise", "append", "delta_lag"}

// perLayer is the list of layer metrics of a traced run, in report order.
var perLayer = []metricDef{
	// The issue's named end-to-end metrics, from the untraced window.
	{Name: "e2e.evaluate_p50_ms", Unit: "ms"}, {Name: "e2e.evaluate_p95_ms", Unit: "ms"}, {Name: "e2e.evaluate_per_s", Unit: "1/s", Higher: true},
	{Name: "e2e.pairwise_p50_ms", Unit: "ms"}, {Name: "e2e.pairwise_p95_ms", Unit: "ms"}, {Name: "e2e.pairwise_per_s", Unit: "1/s", Higher: true},
	{Name: "e2e.append_p50_ms", Unit: "ms"}, {Name: "e2e.append_p95_ms", Unit: "ms"},
	{Name: "e2e.delta_lag_p50_ms", Unit: "ms"}, {Name: "e2e.delta_lag_p95_ms", Unit: "ms"},
	{Name: "e2e.failed_share", Unit: "ratio"},
	// client: the harness's own side of the wire.
	{Name: "client.transport_us", Unit: "us"},
	{Name: "client.evaluate_p99_ms", Unit: "ms"}, {Name: "client.pairwise_p99_ms", Unit: "ms"}, {Name: "client.append_p99_ms", Unit: "ms"},
	{Name: "client.evaluate_max_ms", Unit: "ms"}, {Name: "client.pairwise_max_ms", Unit: "ms"}, {Name: "client.append_max_ms", Unit: "ms"},
	{Name: "client.open_loop_late_ms", Unit: "ms"}, {Name: "client.lag_drift_ms", Unit: "ms"},
	// server
	{Name: "server.pairwise_self_us", Unit: "us"}, {Name: "server.evaluate_self_us", Unit: "us"}, {Name: "server.append_self_us", Unit: "us"},
	{Name: "server.response_bytes_per_op", Unit: "B"}, {Name: "server.allocs_per_pairwise", Unit: "count"},
	// automata, plancache, core.Compile
	{Name: "automata.parse_us", Unit: "us"},
	{Name: "plancache.hit_us", Unit: "us"}, {Name: "plancache.hit_share", Unit: "ratio", Higher: true}, {Name: "core.compile_ms", Unit: "ms"},
	// plan
	{Name: "plan.plan_us", Unit: "us"}, {Name: "plan.seeded_ms", Unit: "ms"},
	{Name: "plan.chosen_share.seeded", Unit: "ratio"}, {Name: "plan.chosen_share.optrpl", Unit: "ratio"},
	{Name: "plan.chosen_share.rpl", Unit: "ratio"}, {Name: "plan.chosen_share.decompose", Unit: "ratio"},
	// engine, index
	{Name: "engine.evaluate_self_us", Unit: "us"}, {Name: "engine.sort_ms", Unit: "ms"}, {Name: "engine.build_ms", Unit: "ms"},
	{Name: "index.build_ms", Unit: "ms"},
	// core, reach, label
	{Name: "core.scan_ms", Unit: "ms"}, {Name: "core.scan_pairs_per_s", Unit: "1/s", Higher: true},
	{Name: "core.pairwise_ns", Unit: "ns"}, {Name: "core.allocs_per_pairwise", Unit: "count"},
	{Name: "core.general_eval_ms", Unit: "ms"}, {Name: "core.safe_subtrees_per_query", Unit: "count"}, {Name: "core.relational_nodes_per_query", Unit: "count"},
	{Name: "reach.pairwise_ns", Unit: "ns"}, {Name: "label.decode_ns", Unit: "ns"}, {Name: "label.bytes_per_node", Unit: "B"},
	// derive, store
	{Name: "derive.decode_batch_us", Unit: "us"}, {Name: "derive.grow_us", Unit: "us"}, {Name: "derive.encode_batch_us", Unit: "us"}, {Name: "derive.open_columnar_ms", Unit: "ms"},
	{Name: "store.append_us", Unit: "us"}, {Name: "store.fsyncs_per_append", Unit: "count"}, {Name: "store.coalescing", Unit: "ratio", Higher: true},
	{Name: "store.bytes_per_edge", Unit: "B"}, {Name: "store.open_ms", Unit: "ms"}, {Name: "store.replayed_batches", Unit: "count"},
	// watch
	{Name: "watch.delta_pairs_ms", Unit: "ms"}, {Name: "watch.delta_pairs_per_event", Unit: "count"},
	{Name: "watch.pairwise_checks_per_event", Unit: "count"}, {Name: "watch.dropped", Unit: "count"},
	// runtime, from the untraced window
	{Name: "runtime.allocs_per_op", Unit: "count"}, {Name: "runtime.alloc_bytes_per_op", Unit: "B"}, {Name: "runtime.gc_cpu_share", Unit: "ratio"},
	// trace: traced L0 p50 / untraced p50 per op family
	{Name: "trace.replay_skew.evaluate", Unit: "ratio"}, {Name: "trace.replay_skew.pairwise", Unit: "ratio"},
	{Name: "trace.replay_skew.append", Unit: "ratio"}, {Name: "trace.replay_skew.delta_lag", Unit: "ratio"},
}
