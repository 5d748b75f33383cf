package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"provrpq"
	"provrpq/internal/derive"
	"provrpq/internal/plan"
	"provrpq/internal/server"
)

// served is one program instance: a durable catalog over a data dir and,
// once listening, the real server handler on a loopback TCP port.
type served struct {
	dir     string
	cat     *provrpq.Catalog
	handler http.Handler
	srv     *http.Server
	base    string
	done    chan error // Serve's return value
}

// setUp is the program's set-up for a workload, the span setup_s times:
// open the store, build the catalog, derive (or decode) and persist every
// run, touch each run's engine once so index and planner statistics exist,
// and compile the pool's plans.
func setUp(fx *fixture, dir string) (*served, error) {
	st, err := provrpq.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	cat := provrpq.NewCatalog(provrpq.CatalogOptions{Store: st, Workers: engineWorkers})
	for _, name := range fx.runOrder {
		rf := fx.runs[name]
		if _, ok := cat.Spec(rf.def.Dataset); !ok {
			if err := cat.RegisterSpec(rf.def.Dataset, rf.ds.pub); err != nil {
				return nil, err
			}
		}
		run, err := rf.publicRun()
		if err != nil {
			return nil, err
		}
		if err := cat.AddRun(name, rf.def.Dataset, run); err != nil {
			return nil, err
		}
	}
	for i := range fx.pool {
		pq := &fx.pool[i]
		q, err := provrpq.ParseQuery(pq.Query)
		if err != nil {
			return nil, err
		}
		// Explain compiles the plan and builds the engine's index and
		// planner on first touch.
		rep, err := cat.Explain(pq.Run, q)
		if err != nil {
			return nil, fmt.Errorf("pool query %q on %s: %w", pq.Query, pq.Run, err)
		}
		if rep.Safe != pq.Safe {
			return nil, fmt.Errorf("pool query %q on %s: safety verdict %v, pools.json says %v", pq.Query, pq.Run, rep.Safe, pq.Safe)
		}
	}
	return &served{dir: dir, cat: cat}, nil
}

// newHandler wraps a catalog in the real server's handler, with rpqd's
// default options.
func newHandler(cat *provrpq.Catalog) http.Handler {
	return server.New(cat, server.Options{}).Handler()
}

// listen mounts the real handler on 127.0.0.1.
func (s *served) listen() error {
	s.handler = newHandler(s.cat)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: s.handler}
	s.base = "http://" + ln.Addr().String()
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	return nil
}

// shutdown closes the listener and every connection (watch streams never
// end by themselves) and waits for Serve to return.
func (s *served) shutdown() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	if serr := <-s.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.srv = nil
	return err
}

// expectation is what a correct reply to one pool query looks like.
type expectation struct {
	pq *poolQuery
	// count is the exact match count at the complete run; digest the
	// order-independent digest of the full pair list; blocks the digest of
	// every limit-sized page at an offset that is a multiple of pageLimit.
	count  int
	digest uint32
	blocks []uint32
}

const pageLimit = 1000

// pairwiseTable holds, per (pairwise query, sampled source), the oracle's
// row: which targets match. Every pairwise reply is checked against it.
type pairwiseTable struct {
	pq      *poolQuery
	sources []derive.NodeID
	rows    []map[derive.NodeID]bool
}

// session is one run of one workload.
type session struct {
	ctx   context.Context
	fx    *fixture
	sv    *served
	seed  int64
	quick bool

	expect   map[*poolQuery]*expectation
	pairwise map[string][]*pairwiseTable // by run name
	verifyS  float64
	checks   int // oracle-checked rows
}

// evalBody renders an evaluate request.
func evalBody(run, query string, countOnly bool, limit, offset int) []byte {
	b := fmt.Appendf(nil, `{"run":%q,"query":%q`, run, query)
	if countOnly {
		b = append(b, `,"count_only":true`...)
	}
	if limit >= 0 {
		b = fmt.Appendf(b, `,"limit":%d,"offset":%d`, limit, offset)
	}
	return append(b, '}')
}

// verifyQuery evaluates one pool query over HTTP with its full pair list
// and checks it against pools.json and the oracle: on a run of at most 2K
// edges every row, on a larger run the rows of 16 sampled sources plus the
// rows of the sources the reply names (all of them for a selective query,
// so every returned pair is checked, and the sampled rows check pairs that
// were not returned).
func (s *session) verifyQuery(c *client, pq *poolQuery, rng *rand.Rand) error {
	rf := s.fx.runs[pq.Run]
	// pools.json records the planner's choice under static unit costs; eight
	// evaluations are enough to warm the measured ones.
	plan.SharedTimings().Reset()
	status, body, _, err := c.post(s.ctx, "/v1/evaluate", evalBody(pq.Run, pq.Query, false, -1, 0))
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("verify %q on %s: status %d: %v %.200s", pq.Query, pq.Run, status, err, body)
	}
	ex := &expectation{pq: pq}
	count, _ := jsonInt(body, "count")
	ex.count = count
	if !s.quick {
		if count != pq.Count {
			return fmt.Errorf("verify %q on %s: served count %d, pools.json says %d", pq.Query, pq.Run, count, pq.Count)
		}
		if got := jsonString(body, "strategy"); pq.Strategy != "" && got != pq.Strategy {
			return fmt.Errorf("verify %q on %s: strategy %q, pools.json says %q (static unit costs)", pq.Query, pq.Run, got, pq.Strategy)
		}
	}
	// Pass 1: element count, digests, and the first sources the reply names.
	var block uint32
	var named []derive.NodeID
	lastFrom, bad, n := "", "", 0
	eachPair(body, func(from, _, elem []byte) {
		h := crcOf(elem)
		ex.digest ^= h
		block ^= h
		if n++; n%pageLimit == 0 {
			ex.blocks = append(ex.blocks, block)
			block = 0
		}
		if string(from) != lastFrom && len(named) < 16 {
			lastFrom = string(from)
			u, ok := rf.full.NodeByName(lastFrom)
			if !ok {
				bad = lastFrom
			}
			named = append(named, u)
		}
	})
	if n%pageLimit != 0 {
		ex.blocks = append(ex.blocks, block)
	}
	if n != count || bad != "" {
		return fmt.Errorf("verify %q on %s: %d pairs listed for count %d (unknown node %q)", pq.Query, pq.Run, n, count, bad)
	}
	nodes := rf.full.NumNodes()
	small := rf.full.NumEdges() <= 2000
	sources := named
	if small {
		sources = rf.full.AllNodes()
	} else {
		for i := 0; i < 16; i++ {
			sources = append(sources, derive.NodeID(rng.Intn(nodes)))
		}
	}
	// Pass 2: the served rows of those sources.
	served := map[derive.NodeID]map[derive.NodeID]bool{}
	for _, u := range sources {
		served[u] = map[derive.NodeID]bool{}
	}
	lastFrom = ""
	var row map[derive.NodeID]bool
	eachPair(body, func(from, to, _ []byte) {
		if string(from) != lastFrom {
			lastFrom = string(from)
			u, _ := rf.full.NodeByName(lastFrom)
			row = served[u]
		}
		if row != nil {
			if v, ok := rf.full.NodeByName(string(to)); ok {
				row[v] = true
			} else {
				bad = string(to)
			}
		}
	})
	if bad != "" {
		return fmt.Errorf("verify %q on %s: unknown node %q in the reply", pq.Query, pq.Run, bad)
	}
	tr := newTruth(rf.full, pq.node)
	for _, u := range sources {
		want := tr.row(u)
		got := served[u]
		if len(want) != len(got) {
			return fmt.Errorf("verify %q on %s: source %s has %d served matches, the oracle finds %d", pq.Query, pq.Run, rf.name(u), len(got), len(want))
		}
		for v := range want {
			if !got[v] {
				return fmt.Errorf("verify %q on %s: the oracle's pair (%s, %s) was not served", pq.Query, pq.Run, rf.name(u), rf.name(v))
			}
		}
		s.checks++
	}
	s.expect[pq] = ex
	return nil
}

// buildPairwiseTables asks the oracle for the rows the pairwise requests
// of this seed will probe.
func (s *session) buildPairwiseTables(rng *rand.Rand) {
	const sourcesPerQuery = 8
	for _, pq := range s.fx.role("pairwise") {
		rf := s.fx.runs[pq.Run]
		tr := newTruth(rf.full, pq.node)
		t := &pairwiseTable{pq: pq}
		for i := 0; i < sourcesPerQuery; i++ {
			u := derive.NodeID(rng.Intn(rf.baseNodes))
			t.sources = append(t.sources, u)
			t.rows = append(t.rows, tr.row(u))
			s.checks++
		}
		s.pairwise[pq.Run] = append(s.pairwise[pq.Run], t)
	}
}

// verify runs the correctness gate over the workload's static runs (before
// the window) or over its growing runs (after their last batch has been
// acknowledged: only the complete run has an oracle).
func (s *session) verify(growing bool) error {
	start := time.Now()
	rng := rand.New(rand.NewSource(s.seed ^ 0x5eed))
	if !growing {
		s.buildPairwiseTables(rng)
	}
	c := newClient(s.sv.base)
	defer c.close()
	for i := range s.fx.pool {
		pq := &s.fx.pool[i]
		if pq.Role == "pairwise" || (s.fx.runs[pq.Run].def.Grow > 0) != growing {
			continue
		}
		if err := s.verifyQuery(c, pq, rng); err != nil {
			return err
		}
	}
	s.verifyS += time.Since(start).Seconds()
	return nil
}

// bootCycle reopens the data dir the workload left behind BootRepeats
// times: open the store, rebuild the catalog (replaying every append
// batch), answer one evaluate per run. Every acknowledged version must be
// there and every count must equal the live catalog's.
func (s *session) bootCycle() (bootS, openMS float64, replayed int, err error) {
	type probe struct {
		run     string
		q       *provrpq.Query
		count   int
		version int
	}
	var probes []probe
	for _, name := range s.fx.runOrder {
		for i := range s.fx.pool {
			pq := &s.fx.pool[i]
			if pq.Run != name || pq.Role == "pairwise" {
				continue
			}
			q, err := provrpq.ParseQuery(pq.Query)
			if err != nil {
				return 0, 0, 0, err
			}
			eng, err := s.sv.cat.Engine(name)
			if err != nil {
				return 0, 0, 0, err
			}
			pairs, err := eng.Evaluate(q)
			if err != nil {
				return 0, 0, 0, err
			}
			ver, _ := s.sv.cat.RunVersion(name)
			probes = append(probes, probe{name, q, len(pairs), ver})
			break
		}
	}
	var boots, opens []float64
	for i := 0; i < s.fx.wl.BootRepeats; i++ {
		plan.SharedTimings().Reset() // a restarted daemon has no measured costs
		runtime.GC()                 // and every cycle starts from the same heap
		start := time.Now()
		st, err := provrpq.OpenStore(s.sv.dir)
		if err != nil {
			return 0, 0, 0, err
		}
		opened := time.Since(start)
		cat, err := provrpq.NewCatalogFromStore(st, provrpq.CatalogOptions{Workers: engineWorkers})
		if err != nil {
			return 0, 0, 0, err
		}
		for _, p := range probes {
			eng, err := cat.Engine(p.run)
			if err != nil {
				return 0, 0, 0, err
			}
			pairs, err := eng.Evaluate(p.q)
			if err != nil {
				return 0, 0, 0, err
			}
			if ver, _ := cat.RunVersion(p.run); ver != p.version || len(pairs) != p.count {
				return 0, 0, 0, fmt.Errorf("reopen: run %s is at version %d with %d matches of %s; the live catalog had version %d and %d", p.run, ver, len(pairs), p.q, p.version, p.count)
			}
		}
		boots = append(boots, time.Since(start).Seconds())
		opens = append(opens, float64(opened)/1e6)
		if i == 0 {
			appends, err := st.Appends()
			if err != nil {
				return 0, 0, 0, err
			}
			for _, n := range appends {
				replayed += n
			}
		}
	}
	return median(boots), median(opens), replayed, nil
}

// timedSetUps runs the set-up SetupRepeats times in fresh data dirs and
// keeps the last instance; setup_s is the median.
func timedSetUps(fx *fixture, outDir string) (*served, float64, error) {
	var times []float64
	var keep *served
	for i := 0; i < fx.wl.SetupRepeats; i++ {
		dir, err := os.MkdirTemp(outDir, "data-")
		if err != nil {
			return nil, 0, err
		}
		plan.SharedTimings().Reset()
		start := time.Now()
		sv, err := setUp(fx, dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if keep != nil {
			os.RemoveAll(keep.dir)
		}
		keep = sv
	}
	return keep, median(times), nil
}

// dirBytes sums the sizes of the files under dir/sub.
func dirBytes(dir, sub string) int64 {
	var total int64
	filepath.Walk(filepath.Join(dir, sub), func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}
