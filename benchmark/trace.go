package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"provrpq"
	"provrpq/internal/automata"
	"provrpq/internal/core"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/label"
	"provrpq/internal/plan"
	"provrpq/internal/plancache"
	"provrpq/internal/reach"
	"provrpq/internal/store"
)

// The traced replay peels one generated request stream at four levels,
// each a public entry point, one pass per level so spans never overlap:
//
//	L0 client round trip over loopback
//	L1 server.Handler().ServeHTTP on an in-memory recorder
//	L2 Engine.EvaluatePlanned / Engine.Pairwise / Catalog.AppendEdges / Catalog.DeltaPairs
//	L3 the internal packages, called directly
//
// A layer's self time is its level's span minus the spans of the level
// below. All spans are recorded here, around the calls into each layer;
// nothing inside the program is instrumented.

// span is one timed call. Spans of one op share Op; Parent names the span
// of the level above that contains this call in a real request.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind"` // latency series of the op, e.g. "evaluate.full"
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
	// dur indexes durations (ms) by span name and op, for the arithmetic.
	dur map[string]map[int]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), dur: map[string]map[int]float64{}} }

func (t *tracer) add(name, parent, kind string, op int, start, end time.Time) {
	t.spans = append(t.spans, span{name, parent, kind, op, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	if t.dur[name] == nil {
		t.dur[name] = map[int]float64{}
	}
	t.dur[name][op] += float64(end.Sub(start)) / 1e6
}

// time runs fn inside a span.
func (t *tracer) time(name, parent, kind string, op int, fn func()) {
	start := time.Now()
	fn()
	t.add(name, parent, kind, op, start, time.Now())
}

// selfTime is the median over ops of Σ dur[plus] − Σ dur[minus]: a span's
// self time is itself minus the spans of the level below. ops == nil means
// every op that has the first plus span; ops missing a named span are
// skipped.
func (t *tracer) selfTime(ops []int, plus, minus []string) float64 {
	if ops == nil {
		for op := range t.dur[plus[0]] {
			ops = append(ops, op)
		}
	}
	var xs []float64
	for _, op := range ops {
		v, ok := 0.0, true
		for _, name := range plus {
			d, has := t.dur[name][op]
			v, ok = v+d, ok && has
		}
		for _, name := range minus {
			d, has := t.dur[name][op]
			v, ok = v-d, ok && has
		}
		if ok {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// med is the median duration of one span name.
func (t *tracer) med(name string) float64 { return t.selfTime(nil, []string{name}, nil) }

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// l3run is the internal-package view of one run, built the way the engine
// builds its own.
type l3run struct {
	rf     *runFixture
	run    *derive.Run
	ix     *index.Index
	pl     *plan.Planner
	labels []label.Label
	nodes  []derive.NodeID
	gen    *core.General
}

func newL3Run(rf *runFixture, cache *plancache.Cache) *l3run {
	ix := index.Build(rf.full)
	return &l3run{
		rf: rf, run: rf.full, ix: ix,
		pl:     plan.NewWithTimings(ix, plan.SharedTimings()),
		labels: rf.full.MaterializeLabels(),
		nodes:  rf.full.AllNodes(),
		gen:    core.NewGeneralOpts(rf.full, ix, core.CostBased, core.GeneralOptions{Envs: cache, Workers: engineWorkers}),
	}
}

func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}

// tracedReplay produces every per-layer metric of one workload.
func (s *session) tracedReplay(o options, win *windowResult, before, after counterSnapshot) (map[string]float64, error) {
	began := time.Now()
	wl := s.fx.wl
	m := map[string]float64{}
	tr := newTracer()
	rec := win.rec

	// From the untraced window: the issue's named end-to-end metrics, the
	// informational tails, and the counters read at its boundaries.
	for _, fam := range opFamilies {
		xs := rec.family(fam)
		if len(xs) == 0 {
			continue
		}
		m["e2e."+fam+"_p50_ms"] = median(xs)
		m["e2e."+fam+"_p95_ms"] = quantile(xs, 0.95)
		if fam == "evaluate" || fam == "pairwise" {
			m["e2e."+fam+"_per_s"] = float64(len(xs)) / win.seconds
		}
		if fam != "delta_lag" {
			m["client."+fam+"_p99_ms"] = quantile(xs, 0.99)
			m["client."+fam+"_max_ms"] = maxOf(xs)
		}
	}
	m["e2e.failed_share"] = float64(rec.failed) / float64(max(rec.attempted, 1))
	if len(win.late) > 0 {
		m["client.open_loop_late_ms"] = quantile(win.late, 0.95)
		m["client.lag_drift_ms"] = lagDrift(win.lags)
	}
	ops := float64(max(rec.attempted, 1))
	m["runtime.allocs_per_op"] = float64(after.mem.Mallocs-before.mem.Mallocs) / ops
	m["runtime.alloc_bytes_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / ops
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
	if lookups := float64(after.cacheHits-before.cacheHits) + float64(after.cacheMiss-before.cacheMiss); lookups > 0 {
		m["plancache.hit_share"] = float64(after.cacheHits-before.cacheHits) / lookups
	}
	evals := 0
	for _, n := range rec.strategy {
		evals += n
	}
	for _, st := range []string{"seeded", "optrpl", "rpl", "decompose"} {
		if evals > 0 {
			m["plan.chosen_share."+st] = float64(rec.strategy[st]) / float64(evals)
		}
	}
	if appends := after.ops - before.ops; appends > 0 {
		m["store.fsyncs_per_append"] = (after.fsyncs - before.fsyncs) / appends
		m["store.coalescing"] = appends / (after.groups - before.groups)
		m["watch.dropped"] = after.dropped - before.dropped
	}

	// L3 needs the program's structures built from the benchmark's side.
	cache := plancache.New(0)
	start := time.Now()
	for i := range s.fx.pool {
		pq := &s.fx.pool[i]
		if _, err := cache.Get(s.fx.runs[pq.Run].ds.d.Spec, pq.node); err != nil {
			return nil, err
		}
	}
	m["core.compile_ms"] = float64(time.Since(start)) / 1e6
	l3 := map[string]*l3run{}
	var ixBuild []float64
	for _, name := range s.fx.runOrder {
		l3[name] = newL3Run(s.fx.runs[name], cache)
		t0 := time.Now()
		index.Build(s.fx.runs[name].full)
		ixBuild = append(ixBuild, float64(time.Since(t0))/1e6)
	}
	m["index.build_ms"] = median(ixBuild)

	if wl.Readers > 0 {
		if err := s.replayReads(tr, m, l3, cache); err != nil {
			return nil, err
		}
	}
	if wl.AppendRate > 0 {
		if err := s.replayAppends(o, tr, m, cache); err != nil {
			return nil, err
		}
	}
	s.microbench(m, l3[s.fx.runOrder[0]], cache)
	if err := s.engineBuild(m); err != nil {
		return nil, err
	}

	// trace.replay_skew: traced L0 p50 over the untraced window's p50.
	for _, fam := range opFamilies {
		if untraced := m["e2e."+fam+"_p50_ms"]; untraced > 0 {
			var ops []int
			for _, sp := range tr.spans {
				if sp.Name == "client.round_trip" && seriesFamily(sp.Kind) == fam {
					ops = append(ops, sp.Op)
				}
			}
			if traced := tr.selfTime(ops, []string{"client.round_trip"}, nil); traced > 0 {
				m["trace.replay_skew."+fam] = traced / untraced
			}
		}
	}
	path := filepath.Join(o.outDir, "trace-"+wl.Name+".json")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans written to %s; replay took %.1f s\n", len(tr.spans), path, time.Since(began).Seconds())
	return m, nil
}

// replayReads peels reader 0's request stream: each op runs at all four
// levels back to back, so the levels of one op see the same cache and heap
// state and their differences are not drift between passes.
func (s *session) replayReads(tr *tracer, m map[string]float64, l3 map[string]*l3run, cache *plancache.Cache) error {
	wl := s.fx.wl
	g := s.newGenerator(0)
	reqs := make([]*request, wl.ReplayReads)
	if s.quick {
		reqs = reqs[:min(len(reqs), 40)]
	}
	kinds := map[string][]int{}
	parsed := map[string]*provrpq.Query{}
	for i := range reqs {
		r := g.next()
		reqs[i] = r
		fam := seriesFamily(r.series)
		kinds[fam] = append(kinds[fam], i)
		if parsed[r.pq.Query] == nil {
			q, err := provrpq.ParseQuery(r.pq.Query)
			if err != nil {
				return err
			}
			parsed[r.pq.Query] = q
		}
	}
	plan.SharedTimings().Reset()
	c := newClient(s.sv.base)
	defer c.close()
	respBytes, pairsOut, scanMS, subtrees, relational, generalOps := 0, 0, 0.0, 0, 0, 0
	for i, r := range reqs {
		fam := seriesFamily(r.series)
		kind := r.series
		eng, err := s.sv.cat.Engine(r.pq.Run)
		if err != nil {
			return err
		}
		q := parsed[r.pq.Query]
		// One unrecorded execution first, so that L0 does not alone pay for
		// bringing the op's labels into the CPU caches.
		if fam == "pairwise" {
			_, err = eng.Pairwise(q, provrpq.NodeID(r.from), provrpq.NodeID(r.to))
		} else {
			_, _, err = eng.EvaluatePlanned(q)
		}
		if err != nil {
			return err
		}
		// L0
		start := time.Now()
		status, body, _, err := c.post(s.ctx, r.path, r.body)
		end := time.Now()
		if err != nil {
			return err
		}
		if msg := r.check(status, body); msg != "" {
			return fmt.Errorf("traced replay: %s", msg)
		}
		tr.add("client.round_trip", "", kind, i, start, end)
		// L1
		req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
		w := httptest.NewRecorder()
		tr.time("server.ServeHTTP", "client.round_trip", kind, i, func() { s.sv.handler.ServeHTTP(w, req) })
		if w.Code != http.StatusOK {
			return fmt.Errorf("traced replay L1: status %d", w.Code)
		}
		respBytes += w.Body.Len()
		// L2
		parent := "engine.EvaluatePlanned"
		if fam == "pairwise" {
			parent = "engine.Pairwise"
			tr.time(parent, "server.ServeHTTP", kind, i, func() {
				_, err = eng.Pairwise(q, provrpq.NodeID(r.from), provrpq.NodeID(r.to))
			})
		} else {
			tr.time(parent, "server.ServeHTTP", kind, i, func() { _, _, err = eng.EvaluatePlanned(q) })
		}
		if err != nil {
			return err
		}
		// L3
		lr := l3[r.pq.Run]
		spec := lr.rf.ds.d.Spec
		var node *automata.Node
		var env *core.Env
		tr.time("automata.Parse", "server.ServeHTTP", kind, i, func() { node, err = automata.Parse(r.pq.Query) })
		if err != nil {
			return err
		}
		tr.time("plancache.Get", parent, kind, i, func() { env, err = cache.Get(spec, node) })
		if err != nil {
			return err
		}
		if fam == "pairwise" {
			tr.time("core.PairwiseBytes", parent, kind, i, func() {
				_, err = env.PairwiseBytes(lr.run.LabelBytes(r.from), lr.run.LabelBytes(r.to))
			})
			if err != nil {
				return err
			}
			continue
		}
		if !env.Safe() {
			var rep *core.EvalReport
			tr.time("core.General.Eval", parent, kind, i, func() { _, rep, err = lr.gen.Eval(node) })
			if err != nil {
				return err
			}
			subtrees += len(rep.SafeSubtrees)
			relational += rep.RelationalNodes
			generalOps++
			continue
		}
		var out [][2]int32
		emit := func(a, b int) { out = append(out, [2]int32{int32(a), int32(b)}) }
		var dec plan.Decision
		n := len(lr.nodes)
		tr.time("plan.Plan", parent, kind, i, func() { dec = lr.pl.Plan(env, n, n) })
		if dec.Strategy == plan.Seeded {
			tr.time("plan.AllPairsSeeded", parent, kind, i, func() {
				err = plan.AllPairsSeeded(env, lr.ix, dec, lr.nodes, lr.nodes, emit)
			})
		} else {
			st := core.OptRPL
			if dec.Strategy == plan.RPL {
				st = core.RPL
			}
			t0 := time.Now()
			tr.time("core.AllPairsSafeParallel", parent, kind, i, func() {
				err = env.AllPairsSafeParallel(lr.labels, lr.labels, st, engineWorkers, emit)
			})
			scanMS += float64(time.Since(t0)) / 1e6
			pairsOut += len(out)
		}
		if err != nil {
			return err
		}
		tr.time("engine.sort", parent, kind, i, func() {
			sort.Slice(out, func(a, b int) bool {
				if out[a][0] != out[b][0] {
					return out[a][0] < out[b][0]
				}
				return out[a][1] < out[b][1]
			})
		})
	}
	m["server.response_bytes_per_op"] = float64(respBytes) / float64(len(reqs))
	if pw := kinds["pairwise"]; len(pw) > 0 {
		a0 := allocObjects()
		for _, i := range pw {
			req := httptest.NewRequest(http.MethodPost, reqs[i].path, bytes.NewReader(reqs[i].body))
			s.sv.handler.ServeHTTP(httptest.NewRecorder(), req)
		}
		// The request and the recorder are the harness's own: the same
		// handful of objects per op on every commit.
		m["server.allocs_per_pairwise"] = float64(allocObjects()-a0) / float64(len(pw))
	}

	pw, ev := kinds["pairwise"], kinds["evaluate"]
	gated := kinds[wl.Gated]
	m["client.transport_us"] = 1000 * tr.selfTime(gated, []string{"client.round_trip"}, []string{"server.ServeHTTP"})
	m["automata.parse_us"] = 1000 * tr.med("automata.Parse")
	m["plancache.hit_us"] = 1000 * tr.med("plancache.Get")
	if len(pw) > 0 {
		m["server.pairwise_self_us"] = 1000 * tr.selfTime(pw, []string{"server.ServeHTTP"}, []string{"engine.Pairwise", "automata.Parse"})
	}
	if len(ev) > 0 {
		m["server.evaluate_self_us"] = 1000 * tr.selfTime(ev, []string{"server.ServeHTTP"}, []string{"engine.EvaluatePlanned", "automata.Parse"})
		m["plan.plan_us"] = 1000 * tr.med("plan.Plan")
		m["plan.seeded_ms"] = tr.med("plan.AllPairsSeeded")
		m["core.scan_ms"] = tr.med("core.AllPairsSafeParallel")
		m["core.general_eval_ms"] = tr.med("core.General.Eval")
		m["engine.sort_ms"] = tr.med("engine.sort")
		// Exactly one of the three scans runs per evaluate.
		self := []float64{
			tr.selfTime(nil, []string{"engine.EvaluatePlanned"}, []string{"plan.Plan", "plan.AllPairsSeeded", "engine.sort"}),
			tr.selfTime(nil, []string{"engine.EvaluatePlanned"}, []string{"plan.Plan", "core.AllPairsSafeParallel", "engine.sort"}),
			tr.selfTime(nil, []string{"engine.EvaluatePlanned"}, []string{"core.General.Eval"}),
		}
		counts := []int{len(tr.dur["plan.AllPairsSeeded"]), len(tr.dur["core.AllPairsSafeParallel"]), len(tr.dur["core.General.Eval"])}
		best := 0
		for i := range counts {
			if counts[i] > counts[best] {
				best = i
			}
		}
		m["engine.evaluate_self_us"] = 1000 * self[best]
		if scanMS > 0 {
			m["core.scan_pairs_per_s"] = float64(pairsOut) / (scanMS / 1000)
		}
		if generalOps > 0 {
			m["core.safe_subtrees_per_query"] = float64(subtrees) / float64(generalOps)
			m["core.relational_nodes_per_query"] = float64(relational) / float64(generalOps)
		}
	}
	return nil
}

// sink keeps the microbenchmarks' results alive.
var sink int

// microbench times the innermost decode paths on the workload's first run:
// what a later scan or decode optimisation changes first.
func (s *session) microbench(m map[string]float64, lr *l3run, cache *plancache.Cache) {
	var env *core.Env
	for i := range s.fx.pool {
		pq := &s.fx.pool[i]
		if pq.Safe && pq.Run == lr.rf.def.Name {
			env, _ = cache.Get(lr.rf.ds.d.Spec, pq.node)
			break
		}
	}
	pairs := 1000000
	if s.quick {
		pairs = 20000
	}
	rng := rand.New(rand.NewSource(fixtureSeed))
	n := lr.run.NumNodes()
	us, vs := make([]label.Bytes, 4096), make([]label.Bytes, 4096)
	for i := range us {
		us[i] = lr.run.LabelBytes(derive.NodeID(rng.Intn(n)))
		vs[i] = lr.run.LabelBytes(derive.NodeID(rng.Intn(n)))
	}
	hits := 0
	if env != nil {
		dec := env.NewDecoder()
		a0 := allocObjects()
		start := time.Now()
		for i := 0; i < pairs; i++ {
			if dec.PairwiseBytesUnchecked(us[i&4095], vs[(i>>12)&4095]) {
				hits++
			}
		}
		m["core.pairwise_ns"] = float64(time.Since(start).Nanoseconds()) / float64(pairs)
		m["core.allocs_per_pairwise"] = float64(allocObjects()-a0) / float64(pairs)
	}
	spec := lr.rf.ds.d.Spec
	start := time.Now()
	for i := 0; i < pairs; i++ {
		if reach.PairwiseBytes(spec, us[i&4095], vs[(i>>12)&4095]) {
			hits++
		}
	}
	m["reach.pairwise_ns"] = float64(time.Since(start).Nanoseconds()) / float64(pairs)
	total := 0
	start = time.Now()
	for id := 0; id < n; id++ {
		b := lr.run.LabelBytes(derive.NodeID(id))
		total += len(b)
		if _, err := b.Decode(); err != nil {
			hits++
		}
	}
	m["label.decode_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)
	m["label.bytes_per_node"] = float64(total) / float64(n)
	if data, err := derive.EncodeColumnar(lr.run); err == nil {
		var opens []float64
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := derive.OpenColumnar(spec, data); err != nil {
				break
			}
			opens = append(opens, float64(time.Since(start))/1e6)
		}
		if len(opens) > 0 {
			m["derive.open_columnar_ms"] = median(opens)
		}
	}
	sink = hits
}

// engineBuild measures what the first request after a version swap pays
// on top of a warm one: the engine's lazily built index and planner
// statistics.
func (s *session) engineBuild(m map[string]float64) error {
	var builds []float64
	for _, name := range s.fx.runOrder {
		var pq *poolQuery
		for i := range s.fx.pool {
			if s.fx.pool[i].Run == name && s.fx.pool[i].Role != "pairwise" {
				pq = &s.fx.pool[i]
				break
			}
		}
		if pq == nil {
			continue
		}
		q, err := provrpq.ParseQuery(pq.Query)
		if err != nil {
			return err
		}
		for rep := 0; rep < 5; rep++ {
			if err := s.sv.cat.ReleaseEngine(name); err != nil {
				return err
			}
			// The first Explain on a fresh engine builds its index and
			// planner statistics (and, for an unsafe query, the general
			// evaluator with its label arena); the second is warm.
			t0 := time.Now()
			if _, err := s.sv.cat.Explain(name, q); err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := s.sv.cat.Explain(name, q); err != nil {
				return err
			}
			builds = append(builds, float64(t1.Sub(t0)-time.Since(t1))/1e6)
		}
	}
	if len(builds) > 0 {
		m["engine.build_ms"] = median(builds)
	}
	return nil
}

// replayAppends peels the first ReplayAppends batches of the growing run.
// Each level appends to its own fresh catalog (an append cannot be
// repeated on one), and each batch runs at all four levels back to back so
// the levels see the same device state.
func (s *session) replayAppends(o options, tr *tracer, m map[string]float64, cache *plancache.Cache) error {
	wl := s.fx.wl
	rf := s.fx.growing()
	k := min(wl.ReplayAppends, len(rf.batches))
	// Append op ids sit above the read op ids, delta op ids above those.
	const opBase, deltaBase = 1 << 20, 1 << 21
	path := "/v1/runs/" + rf.def.Name + "/edges"
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	freshDir := func() (string, error) {
		dir, err := os.MkdirTemp(o.outDir, "data-")
		if err == nil {
			dirs = append(dirs, dir)
		}
		return dir, err
	}
	fresh := func() (*served, error) {
		dir, err := freshDir()
		if err != nil {
			return nil, err
		}
		return setUp(s.fx, dir)
	}

	// L0: a second listening instance, with its own watcher when the
	// workload has one; each append then waits for its delta.
	sv0, err := fresh()
	if err != nil {
		return err
	}
	if err := sv0.listen(); err != nil {
		return err
	}
	defer sv0.shutdown()
	c := newClient(sv0.base)
	defer c.close()
	var stream *watchStream
	var watchQ *provrpq.Query
	var env *core.Env
	spec := rf.ds.d.Spec
	if wl.Watch {
		pq := s.fx.role("watch")[0]
		s0 := &session{ctx: s.ctx, fx: s.fx, sv: sv0}
		if stream, err = s0.openWatch(s.ctx); err != nil {
			return err
		}
		defer stream.close()
		if watchQ, err = provrpq.ParseQuery(pq.Query); err != nil {
			return err
		}
		if env, err = cache.Get(spec, pq.node); err != nil {
			return err
		}
	}
	// L1: the handler on a recorder. L2: the catalog.
	sv1, err := fresh()
	if err != nil {
		return err
	}
	h1 := newHandler(sv1.cat)
	sv2, err := fresh()
	if err != nil {
		return err
	}
	var event provrpq.AppendEvent
	cancel := sv2.cat.SubscribeAppends(func(ev provrpq.AppendEvent) { event = ev })
	defer cancel()
	// L3: derive and store, called directly.
	dir3, err := freshDir()
	if err != nil {
		return err
	}
	st, err := store.Open(dir3)
	if err != nil {
		return err
	}
	cur, err := derive.DecodeRun(spec, rf.baseJSON)
	if err != nil {
		return err
	}
	baseData, err := derive.EncodeColumnar(cur)
	if err != nil {
		return err
	}
	if err := st.PutSpec(rf.def.Dataset, []byte("{}")); err != nil {
		return err
	}
	if err := st.PutRun(rf.def.Name, rf.def.Dataset, baseData); err != nil {
		return err
	}

	checks, deltaPairs, edges := 0, 0, 0
	var appendOps []int
	for i := 0; i < k; i++ {
		op, dop := opBase+i, deltaBase+i
		appendOps = append(appendOps, op)
		edges += rf.batchEdges[i]
		// L0
		start := time.Now()
		status, body, _, err := c.post(s.ctx, path, rf.batches[i])
		end := time.Now()
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("traced append L0: status %d: %v %.200s", status, err, body)
		}
		tr.add("client.round_trip", "", "append", op, start, end)
		if stream != nil {
			ev, err := readSSE(stream.br)
			if err != nil || ev.name != "delta" {
				return fmt.Errorf("traced append L0: event %q: %v", ev.name, err)
			}
			tr.add("client.round_trip", "", "delta_lag", dop, start, ev.at)
		}
		// L1
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(rf.batches[i]))
		w := httptest.NewRecorder()
		tr.time("server.ServeHTTP", "client.round_trip", "append", op, func() { h1.ServeHTTP(w, req) })
		if w.Code != http.StatusOK {
			return fmt.Errorf("traced append L1: status %d: %.200s", w.Code, w.Body.Bytes())
		}
		// L2
		pb, err := provrpq.DecodeBatch(rf.ds.pub, rf.batches[i])
		if err != nil {
			return err
		}
		tr.time("catalog.AppendEdges", "server.ServeHTTP", "append", op, func() {
			_, err = sv2.cat.AppendEdges(rf.def.Name, pb)
		})
		if err != nil {
			return err
		}
		if watchQ != nil {
			var pairs []provrpq.Pair
			tr.time("catalog.DeltaPairs", "client.round_trip", "delta_lag", dop, func() {
				pairs, err = sv2.cat.DeltaPairs(event, watchQ)
			})
			if err != nil {
				return err
			}
			deltaPairs += len(pairs)
		}
		// L3
		var b derive.Batch
		tr.time("derive.DecodeBatch", "server.ServeHTTP", "append", op, func() { b, err = derive.DecodeBatch(spec, rf.batches[i]) })
		if err != nil {
			return err
		}
		lo := cur.NumNodes()
		tr.time("derive.Grow", "catalog.AppendEdges", "append", op, func() { cur, _, err = cur.Grow(b) })
		if err != nil {
			return err
		}
		var data []byte
		tr.time("derive.EncodeBatchColumnar", "catalog.AppendEdges", "append", op, func() { data, err = derive.EncodeBatchColumnar(spec, b) })
		if err != nil {
			return err
		}
		tr.time("store.AppendRun", "catalog.AppendEdges", "append", op, func() { _, err = st.AppendRun(rf.def.Name, data) })
		if err != nil {
			return err
		}
		if env != nil {
			// The decode loop of Catalog.DeltaPairs, without its sort.
			n := cur.NumNodes()
			tr.time("core.PairwiseBytesUnchecked", "catalog.DeltaPairs", "delta_lag", dop, func() {
				for u := lo; u < n; u++ {
					ub := cur.LabelBytes(derive.NodeID(u))
					for v := 0; v < n; v++ {
						vb := cur.LabelBytes(derive.NodeID(v))
						env.PairwiseBytesUnchecked(ub, vb)
						checks++
						if v < lo {
							env.PairwiseBytesUnchecked(vb, ub)
							checks++
						}
					}
				}
			})
		}
	}

	m["server.append_self_us"] = 1000 * tr.selfTime(appendOps, []string{"server.ServeHTTP"}, []string{"catalog.AppendEdges", "derive.DecodeBatch"})
	m["derive.decode_batch_us"] = 1000 * tr.med("derive.DecodeBatch")
	m["derive.grow_us"] = 1000 * tr.med("derive.Grow")
	m["derive.encode_batch_us"] = 1000 * tr.med("derive.EncodeBatchColumnar")
	m["store.append_us"] = 1000 * tr.med("store.AppendRun")
	if wl.Watch {
		m["watch.delta_pairs_ms"] = tr.med("catalog.DeltaPairs")
		m["watch.delta_pairs_per_event"] = float64(deltaPairs) / float64(k)
		m["watch.pairwise_checks_per_event"] = float64(checks) / float64(k)
	}
	if wl.Readers == 0 {
		m["client.transport_us"] = 1000 * tr.selfTime(appendOps, []string{"client.round_trip"}, []string{"server.ServeHTTP"})
	}
	if edges > 0 {
		m["store.bytes_per_edge"] = float64(dirBytes(dir3, "appends")) / float64(edges)
	}
	return sv0.shutdown()
}
