package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"provrpq/internal/derive"
)

// request is one prepared reader op: where it goes, what it sends, which
// latency series it feeds, and how its reply is judged.
type request struct {
	series string
	path   string
	body   []byte
	check  func(status int, body []byte) string // "" = correct

	// What the traced replay needs to repeat the op below HTTP.
	pq       *poolQuery
	from, to derive.NodeID
}

// Phases of a window. A reader records an op in the phase it started in.
const (
	phaseWarm int32 = iota // the zero value: a window starts warming up
	phaseMeasure
	phaseDone
)

// generator yields a reader's request stream. It is deterministic in
// (seed, client index): the traced replay re-creates reader 0's stream.
type generator struct {
	s     *session
	rng   *rand.Rand
	i     int
	queue []*request
	// evals is the pool a cycle's evaluates rotate through, pre-shuffled.
	evals []*poolQuery
	// monotone holds, per query of a growing run, the largest count served
	// so far: a safe query's matches only ever grow with the run.
	monotone map[*poolQuery]int
}

func (s *session) newGenerator(clientIdx int) *generator {
	g := &generator{s: s, rng: rand.New(rand.NewSource(s.seed*1000003 + int64(clientIdx))), monotone: map[*poolQuery]int{}}
	pool := s.fx.role(s.fx.wl.Pool)
	if s.fx.wl.Cycle == "scan" {
		// Alternate the two run classes strictly, so both gated series get
		// the same number of samples whatever their costs.
		byRun := map[string][]*poolQuery{}
		for _, pq := range pool {
			byRun[pq.Run] = append(byRun[pq.Run], pq)
		}
		a, b := byRun[s.fx.runOrder[0]], byRun[s.fx.runOrder[1]]
		g.rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		g.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		for i := 0; i < len(a)*len(b); i++ {
			g.evals = append(g.evals, a[i%len(a)], b[i%len(b)])
		}
		return g
	}
	g.evals = append(g.evals, pool...)
	g.rng.Shuffle(len(g.evals), func(i, j int) { g.evals[i], g.evals[j] = g.evals[j], g.evals[i] })
	return g
}

func (g *generator) next() *request {
	if len(g.queue) == 0 {
		g.fill()
	}
	r := g.queue[0]
	g.queue = g.queue[1:]
	return r
}

// fill appends one cycle of the workload's reader behaviour.
func (g *generator) fill() {
	pq := g.evals[g.i%len(g.evals)]
	g.i++
	switch g.s.fx.wl.Cycle {
	case "point":
		// Four pairwise checks on random node pairs, then one selective
		// evaluate.
		run := g.s.fx.runOrder[g.i%len(g.s.fx.runOrder)]
		for k := 0; k < 4; k++ {
			g.queue = append(g.queue, g.pairwiseRequest(run))
		}
		g.queue = append(g.queue, g.evaluateRequest(pq, "evaluate", false, -1, 0))
	case "scan":
		g.queue = append(g.queue, g.evaluateRequest(pq, "evaluate."+g.s.fx.runs[pq.Run].def.Class, true, -1, 0))
	case "dense":
		// A full pair list, then one limit-sized page of another query at a
		// random page-aligned offset.
		g.queue = append(g.queue, g.evaluateRequest(pq, "evaluate.full", false, -1, 0))
		pq2 := g.evals[g.i%len(g.evals)]
		g.i++
		pages := max(len(g.s.expect[pq2].blocks), 1) // an empty answer still has a first page
		g.queue = append(g.queue, g.evaluateRequest(pq2, "evaluate.page", false, pageLimit, pageLimit*g.rng.Intn(pages)))
	}
}

func (g *generator) pairwiseRequest(run string) *request {
	tables := g.s.pairwise[run]
	t := tables[g.rng.Intn(len(tables))]
	rf := g.s.fx.runs[run]
	si := g.rng.Intn(len(t.sources))
	u, v := t.sources[si], derive.NodeID(g.rng.Intn(rf.baseNodes))
	want := t.rows[si][v]
	return &request{
		series: "pairwise", path: "/v1/pairwise", pq: t.pq, from: u, to: v,
		body: fmt.Appendf(nil, `{"run":%q,"query":%q,"from":%q,"to":%q}`, run, t.pq.Query, rf.name(u), rf.name(v)),
		check: func(status int, body []byte) string {
			if status != http.StatusOK {
				return fmt.Sprintf("pairwise: status %d: %.200s", status, body)
			}
			if got := bytes.Contains(body, []byte(`"match":true`)); got != want {
				return fmt.Sprintf("pairwise %s (%s, %s) on %s: served %v, the oracle says %v", t.pq.Query, rf.name(u), rf.name(v), run, got, want)
			}
			return ""
		},
	}
}

func (g *generator) evaluateRequest(pq *poolQuery, series string, countOnly bool, limit, offset int) *request {
	ex := g.s.expect[pq]
	growing := g.s.fx.runs[pq.Run].def.Grow > 0
	return &request{
		series: series, path: "/v1/evaluate", pq: pq,
		body: evalBody(pq.Run, pq.Query, countOnly, limit, offset),
		check: func(status int, body []byte) string {
			if status != http.StatusOK {
				return fmt.Sprintf("evaluate: status %d: %.200s", status, body)
			}
			count, ok := jsonInt(body, "count")
			if !ok {
				return "evaluate: reply without a count"
			}
			if growing {
				// The run is mid-growth: a safe query's count never shrinks
				// and never passes the complete run's.
				if count < g.monotone[pq] || (!g.s.quick && count > pq.Count) {
					return fmt.Sprintf("evaluate %s on growing %s: count %d after %d (complete run: %d)", pq.Query, pq.Run, count, g.monotone[pq], pq.Count)
				}
				g.monotone[pq] = count
				return ""
			}
			if count != ex.count {
				return fmt.Sprintf("evaluate %s on %s: count %d, expected %d", pq.Query, pq.Run, count, ex.count)
			}
			if countOnly {
				return ""
			}
			digest, n := pairsDigest(body)
			switch {
			case limit < 0:
				if n != ex.count || digest != ex.digest {
					return fmt.Sprintf("evaluate %s on %s: pair list differs from the verified one (%d pairs)", pq.Query, pq.Run, n)
				}
			default:
				want := ex.count - offset
				if want > limit {
					want = limit
				}
				if n != want || (want > 0 && digest != ex.blocks[offset/pageLimit]) {
					return fmt.Sprintf("evaluate %s on %s: page at offset %d differs from the verified list (%d pairs)", pq.Query, pq.Run, offset, n)
				}
			}
			return ""
		},
	}
}

// window is the state shared by the goroutines of one measured window.
type window struct {
	phase atomic.Int32
	// sent and acked count the writer's appends (version = base + count).
	sent, acked atomic.Int64
	// due[i] is when append i was due, in ns since the epoch (0 = not yet).
	due []atomic.Int64
}

// windowResult is what one window measured.
type windowResult struct {
	rec     *recorder
	seconds float64
	late    []float64 // writer lateness, ms
	lags    []lagSample
	// snapshot ∪ deltas accounting of the watcher.
	watchPairs  int
	watchDigest uint32
	watchLagged atomic.Bool
	deltas      atomic.Int64
}

type lagSample struct {
	atMS  float64 // since window start
	lagMS float64
}

// reader runs one closed-loop client until the window ends.
func (s *session) reader(idx int, w *window, out *recorder) {
	c := newClient(s.sv.base)
	defer c.close()
	g := s.newGenerator(idx)
	for {
		phase := w.phase.Load()
		if phase == phaseDone || s.ctx.Err() != nil {
			return
		}
		r := g.next()
		status, body, d, err := c.post(s.ctx, r.path, r.body)
		if phase != phaseMeasure {
			continue
		}
		if err != nil {
			out.fail("%s: %v", r.series, err)
			continue
		}
		if msg := r.check(status, body); msg != "" {
			out.fail("%s", msg)
			continue
		}
		out.ok(r.series, d)
		if r.path == "/v1/evaluate" {
			out.strategy[jsonString(body, "strategy")]++
		}
	}
}

// writer sends the growing run's batches open loop: batch i is due at
// start + i/rate whether or not the server has kept up, and its latency
// runs from that due time. One writer per run, so sends are sequential (a
// batch refers to the nodes of the one before it).
func (s *session) writer(w *window, start time.Time, rate float64, out *recorder, late *[]float64) {
	rf := s.fx.growing()
	c := newClient(s.sv.base)
	defer c.close()
	path := "/v1/runs/" + rf.def.Name + "/edges"
	for i := int(w.sent.Load()); i < len(rf.batches); i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-s.ctx.Done():
				return
			}
		}
		phase := w.phase.Load()
		if phase == phaseDone {
			return
		}
		w.due[i].Store(due.UnixNano())
		sentAt := time.Now()
		w.sent.Add(1)
		status, body, _, err := c.post(s.ctx, path, rf.batches[i])
		d := time.Since(due)
		w.acked.Add(1)
		if phase != phaseMeasure {
			continue
		}
		*late = append(*late, float64(sentAt.Sub(due))/1e6)
		version, _ := jsonInt(body, "version")
		switch {
		case err != nil:
			out.fail("append %d: %v", i, err)
		case status != http.StatusOK || version != i+1:
			out.fail("append %d: status %d version %d: %.200s", i, status, version, body)
		default:
			out.ok("append", d)
		}
	}
}

// drain appends, as fast as they are acknowledged, the batches the window
// did not reach, so every run of the workload ends on the same complete
// run: boot_s replays the same log and the oracle has a run to check.
func (s *session) drain(w *window) error {
	rf := s.fx.growing()
	c := newClient(s.sv.base)
	defer c.close()
	path := "/v1/runs/" + rf.def.Name + "/edges"
	for i := int(w.sent.Load()); i < len(rf.batches); i++ {
		status, body, _, err := c.post(s.ctx, path, rf.batches[i])
		if version, _ := jsonInt(body, "version"); err != nil || status != http.StatusOK || version != i+1 {
			return fmt.Errorf("drain: append %d: status %d version %d: %v %.200s", i, status, version, err, body)
		}
		w.sent.Add(1)
		w.acked.Add(1)
	}
	return nil
}

// watchStream is one open standing-query subscription, positioned after
// its snapshot event.
type watchStream struct {
	hc       *http.Client
	resp     *http.Response
	br       *bufio.Reader
	snapshot sseEvent
}

func (ws *watchStream) close() {
	ws.resp.Body.Close()
	ws.hc.CloseIdleConnections()
}

// openWatch registers the workload's standing query and reads its snapshot.
func (s *session) openWatch(ctx context.Context) (*watchStream, error) {
	rf := s.fx.growing()
	pq := s.fx.role("watch")[0]
	body := fmt.Appendf(nil, `{"run":%q,"query":%q}`, rf.def.Name, pq.Query)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.sv.base+"/v1/watch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	ws := &watchStream{hc: &http.Client{Transport: &http.Transport{DisableCompression: true}}}
	if ws.resp, err = ws.hc.Do(req); err != nil {
		return nil, err
	}
	if ws.resp.StatusCode != http.StatusOK {
		ws.close()
		return nil, fmt.Errorf("watch: status %d", ws.resp.StatusCode)
	}
	ws.br = bufio.NewReaderSize(ws.resp.Body, 1<<16)
	if ws.snapshot, err = readSSE(ws.br); err != nil || ws.snapshot.name != "snapshot" {
		ws.close()
		return nil, fmt.Errorf("watch: first event %q: %v", ws.snapshot.name, err)
	}
	return ws, nil
}

// watcher holds one standing query open and times every delta from the
// moment its append was due until the complete SSE frame has been read.
func (s *session) watcher(ctx context.Context, w *window, winStart *atomic.Int64, ready chan<- error, res *windowResult, out *recorder) {
	ws, err := s.openWatch(ctx)
	if err != nil {
		ready <- err
		return
	}
	defer ws.close()
	br, ev := ws.br, ws.snapshot
	res.watchDigest, res.watchPairs = pairsDigest(ev.data)
	ready <- nil
	next := 1 // the version the next delta must carry
	for {
		ev, err := readSSE(br)
		if err != nil {
			return // stream closed: the session is shutting down
		}
		if ev.name != "delta" {
			res.watchLagged.Store(true)
			return
		}
		version, _ := jsonInt(ev.data, "version")
		digest, n := pairsDigest(ev.data)
		count, _ := jsonInt(ev.data, "count")
		res.watchDigest ^= digest
		res.watchPairs += n
		res.deltas.Add(1)
		if version != next || n != count {
			out.fail("watch: delta for version %d with %d of %d pairs, expected version %d", version, n, count, next)
			next = version + 1
			continue
		}
		next++
		due := w.due[version-1].Load()
		if start := winStart.Load(); start != 0 && due >= start && w.phase.Load() == phaseMeasure {
			lag := float64(ev.at.UnixNano()-due) / 1e6
			out.ok("delta_lag", time.Duration(lag*1e6))
			res.lags = append(res.lags, lagSample{atMS: float64(due-start) / 1e6, lagMS: lag})
		}
	}
}

// runWindow drives the workload's traffic for warm-up + seconds and
// returns what the measured part recorded.
func (s *session) runWindow(seconds float64) (*windowResult, error) {
	wl := s.fx.wl
	w := &window{}
	res := &windowResult{rec: newRecorder()}
	if rf := s.fx.growing(); rf != nil {
		w.due = make([]atomic.Int64, len(rf.batches))
		need := int(wl.AppendRate*seconds*(1+warmupShare)) + 1
		if need > len(rf.batches) {
			return nil, fmt.Errorf("workload %s: %g s at %g appends/s needs %d batches, the frozen run holds %d", wl.Name, seconds, wl.AppendRate, need, len(rf.batches))
		}
	}
	var wg sync.WaitGroup
	var winStart atomic.Int64
	watchCtx, stopWatch := context.WithCancel(s.ctx)
	defer stopWatch()
	var watchRec *recorder
	var watchDone chan struct{}
	if wl.Watch {
		watchRec = newRecorder()
		ready := make(chan error, 1)
		watchDone = make(chan struct{})
		go func() {
			defer close(watchDone)
			s.watcher(watchCtx, w, &winStart, ready, res, watchRec)
		}()
		if err := <-ready; err != nil {
			stopWatch()
			<-watchDone
			return nil, err
		}
	}
	recs := make([]*recorder, wl.Readers)
	for i := range recs {
		recs[i] = newRecorder()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.reader(i, w, recs[i])
		}(i)
	}
	writeRec := newRecorder()
	start := time.Now()
	if wl.AppendRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.writer(w, start, wl.AppendRate, writeRec, &res.late)
		}()
	}
	sleep := func(d time.Duration) {
		select {
		case <-time.After(d):
		case <-s.ctx.Done():
		}
	}
	sleep(time.Duration(seconds * warmupShare * float64(time.Second)))
	t0 := time.Now()
	winStart.Store(t0.UnixNano())
	w.phase.Store(phaseMeasure)
	sleep(time.Duration(seconds * float64(time.Second)))
	res.seconds = time.Since(t0).Seconds()
	w.phase.Store(phaseDone)
	wg.Wait()
	if err := s.ctx.Err(); err != nil {
		stopWatch()
		if watchDone != nil {
			<-watchDone
		}
		return nil, err
	}
	if s.fx.growing() != nil {
		// Complete the run. The watcher must see a delta for every append,
		// these included: snapshot ∪ deltas is compared with the full
		// evaluation at the final version.
		err := s.drain(w)
		if wl.Watch {
			total := w.acked.Load()
			deadline := time.Now().Add(opDeadline)
			for err == nil && res.deltas.Load() < total && !res.watchLagged.Load() && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			stopWatch()
			<-watchDone
			if n := res.deltas.Load(); n != total {
				watchRec.fail("watch: %d deltas for %d acknowledged appends (lagged: %v)", n, total, res.watchLagged.Load())
			}
		}
		if err != nil {
			return nil, err
		}
	}
	for _, r := range recs {
		res.rec.merge(r)
	}
	res.rec.merge(writeRec)
	if watchRec != nil {
		res.rec.merge(watchRec)
	}
	return res, nil
}

func seriesFamily(series string) string {
	if i := strings.IndexByte(series, '.'); i >= 0 {
		return series[:i]
	}
	return series
}
