package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"provrpq"
	"provrpq/internal/store"
	"provrpq/internal/wf"
)

// introSpec is the workflow of the paper's introduction (same shape as the
// root package's test fixture).
func introSpec(t testing.TB) *provrpq.Spec {
	t.Helper()
	spec, err := provrpq.NewSpecBuilder().
		Start("W").
		Chain("W", "ingest", "Analysis", "post", "publish").
		Prod("Analysis", []string{"tool1", "Analysis", "result"},
			[]provrpq.BodyEdge{{From: 0, To: 1, Tag: "a1"}, {From: 1, To: 2, Tag: "s"}}).
		Prod("Analysis", []string{"tool2", "result"},
			[]provrpq.BodyEdge{{From: 0, To: 1, Tag: "s"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

type testClient struct {
	t    testing.TB
	base string
	hc   *http.Client
}

// do posts (or gets, body == nil) and decodes the JSON response into out,
// asserting the status code.
func (c *testClient) do(method, path string, body any, wantStatus int, out any) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		c.t.Fatalf("%s %s = %d, want %d; body: %s", method, path, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: bad response JSON %q: %v", method, path, raw, err)
		}
	}
}

// scrape reads /metrics and returns every sample keyed by its series
// (family name plus rendered label set, exactly as exposed).
func (c *testClient) scrape() map[string]float64 {
	c.t.Helper()
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		c.t.Fatalf("GET /metrics = %d, %v", resp.StatusCode, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			c.t.Fatalf("/metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// newService stands up a catalog, server and httptest front end.
func newService(t testing.TB, opts Options) (*provrpq.Catalog, *testClient) {
	t.Helper()
	cat := provrpq.NewCatalog(provrpq.CatalogOptions{})
	ts := httptest.NewServer(New(cat, opts).Handler())
	t.Cleanup(ts.Close)
	return cat, &testClient{t: t, base: ts.URL, hc: ts.Client()}
}

// registerFixture registers the intro spec and derives three runs via HTTP.
func registerFixture(t testing.TB, c *testClient) []string {
	t.Helper()
	specJSON, err := introSpec(t).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	c.do("POST", "/v1/specs", map[string]any{"name": "intro", "spec": json.RawMessage(specJSON)},
		http.StatusCreated, nil)
	runs := []string{"run-a", "run-b", "run-c"}
	for i, name := range runs {
		c.do("POST", "/v1/runs", map[string]any{
			"name": name, "spec": "intro",
			"derive": map[string]any{"seed": i + 1, "target_edges": 120 + 60*i},
		}, http.StatusCreated, nil)
	}
	return runs
}

// TestServerEndToEnd is the acceptance scenario: one spec, three runs,
// concurrent batch queries from 8 goroutines whose results must match
// direct Engine.Evaluate, with plan-cache hits above misses at the end.
func TestServerEndToEnd(t *testing.T) {
	cat, c := newService(t, Options{})
	runs := registerFixture(t, c)
	queries := []string{"_*.s._*.publish", "ingest._*", "_*.a1._*"}

	// Ground truth straight from the engines (same catalog the server
	// uses): the full pair lists, rendered the way the wire format does.
	want := map[string][]string{}
	for _, rn := range runs {
		eng, err := cat.Engine(rn)
		if err != nil {
			t.Fatal(err)
		}
		for _, qs := range queries {
			q, err := provrpq.ParseQuery(qs)
			if err != nil {
				t.Fatal(err)
			}
			pairs, err := eng.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			rendered := make([]string, len(pairs))
			for i, p := range pairs {
				rendered[i] = eng.Run().NodeName(p.From) + "->" + eng.Run().NodeName(p.To)
			}
			want[rn+"|"+q.String()] = rendered
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				var resp struct {
					Results []struct {
						Run   string `json:"run"`
						Query string `json:"query"`
						Count int    `json:"count"`
						Pairs []struct {
							From string `json:"from"`
							To   string `json:"to"`
						} `json:"pairs"`
						Error string `json:"error"`
					} `json:"results"`
				}
				c.do("POST", "/v1/batch", map[string]any{"runs": runs, "queries": queries},
					http.StatusOK, &resp)
				if len(resp.Results) != len(runs)*len(queries) {
					t.Errorf("goroutine %d: %d results, want %d", g, len(resp.Results), len(runs)*len(queries))
					return
				}
				for _, res := range resp.Results {
					if res.Error != "" {
						t.Errorf("goroutine %d: (%s, %s) failed: %s", g, res.Run, res.Query, res.Error)
						return
					}
					w, ok := want[res.Run+"|"+res.Query]
					if !ok {
						t.Errorf("goroutine %d: unexpected cell (%s, %s)", g, res.Run, res.Query)
						return
					}
					if res.Count != len(w) || len(res.Pairs) != len(w) {
						t.Errorf("goroutine %d: (%s, %s) = %d pairs (count %d), want %d",
							g, res.Run, res.Query, len(res.Pairs), res.Count, len(w))
						return
					}
					for i, p := range res.Pairs {
						if p.From+"->"+p.To != w[i] {
							t.Errorf("goroutine %d: (%s, %s) pair %d = %s->%s, want %s",
								g, res.Run, res.Query, i, p.From, p.To, w[i])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	m := c.scrape()
	if specs, runs := m["provrpq_catalog_specs"], m["provrpq_catalog_runs"]; specs != 1 || runs != 3 {
		t.Errorf("/metrics reports %v specs / %v runs, want 1 / 3", specs, runs)
	}
	if hits, misses := m["provrpq_plan_cache_hits_total"], m["provrpq_plan_cache_misses_total"]; hits <= misses {
		t.Errorf("plan cache should hit more than it misses across runs of one spec: %v hits, %v misses", hits, misses)
	}
	if m["provrpq_http_requests_total"] == 0 {
		t.Error("request counter did not move")
	}
}

func TestServerCatalogEndpoints(t *testing.T) {
	cat, c := newService(t, Options{})
	runs := registerFixture(t, c)

	var specs struct {
		Specs []struct {
			Name string   `json:"name"`
			Size int      `json:"size"`
			Tags []string `json:"tags"`
			Runs []string `json:"runs"`
		} `json:"specs"`
	}
	c.do("GET", "/v1/specs", nil, http.StatusOK, &specs)
	if len(specs.Specs) != 1 || specs.Specs[0].Name != "intro" {
		t.Fatalf("specs listing = %+v", specs)
	}
	if len(specs.Specs[0].Runs) != 3 || specs.Specs[0].Size == 0 || len(specs.Specs[0].Tags) == 0 {
		t.Fatalf("spec info incomplete: %+v", specs.Specs[0])
	}

	var runList struct {
		Runs []struct {
			Name  string `json:"name"`
			Spec  string `json:"spec"`
			Nodes int    `json:"nodes"`
			Edges int    `json:"edges"`
		} `json:"runs"`
	}
	c.do("GET", "/v1/runs", nil, http.StatusOK, &runList)
	if len(runList.Runs) != 3 {
		t.Fatalf("runs listing = %+v", runList)
	}
	for _, ri := range runList.Runs {
		if ri.Spec != "intro" || ri.Nodes == 0 || ri.Edges == 0 {
			t.Fatalf("run info incomplete: %+v", ri)
		}
	}

	// Upload path: encode a run derived from the registered spec object.
	spec, _ := cat.Spec("intro")
	nat, err := spec.Derive(provrpq.DeriveOptions{Seed: 99, TargetEdges: 80})
	if err != nil {
		t.Fatal(err)
	}
	data, err := provrpq.EncodeRun(nat)
	if err != nil {
		t.Fatal(err)
	}
	c.do("POST", "/v1/runs", map[string]any{
		"name": "uploaded", "spec": "intro", "run": json.RawMessage(data),
	}, http.StatusCreated, nil)
	if _, err := cat.Engine("uploaded"); err != nil {
		t.Fatal(err)
	}

	// Evaluate + pairwise agree on one run.
	var ev struct {
		Safe  bool `json:"safe"`
		Count int  `json:"count"`
		Pairs []struct {
			From string `json:"from"`
			To   string `json:"to"`
		} `json:"pairs"`
	}
	c.do("POST", "/v1/evaluate", map[string]any{"run": runs[0], "query": "_*.s._*.publish"},
		http.StatusOK, &ev)
	if ev.Count == 0 || len(ev.Pairs) != ev.Count {
		t.Fatalf("evaluate = %+v", ev)
	}
	var pw struct {
		Match bool `json:"match"`
	}
	c.do("POST", "/v1/pairwise", map[string]any{
		"run": runs[0], "query": "_*.s._*.publish", "from": ev.Pairs[0].From, "to": ev.Pairs[0].To,
	}, http.StatusOK, &pw)
	if !pw.Match {
		t.Errorf("pairwise disagrees with evaluate on %+v", ev.Pairs[0])
	}

	// count_only drops the pair lists.
	var evCount struct {
		Count int             `json:"count"`
		Pairs json.RawMessage `json:"pairs"`
	}
	c.do("POST", "/v1/evaluate", map[string]any{"run": runs[0], "query": "_*.s._*.publish", "count_only": true},
		http.StatusOK, &evCount)
	if evCount.Count != ev.Count || len(evCount.Pairs) != 0 {
		t.Errorf("count_only evaluate = %+v", evCount)
	}

	var health struct {
		Status string `json:"status"`
	}
	c.do("GET", "/healthz", nil, http.StatusOK, &health)
	if health.Status != "ok" {
		t.Errorf("healthz = %+v", health)
	}
}

// TestServerExplain covers the plan endpoint: safe queries report a
// concrete strategy with seed and cost estimates, unsafe ones the
// decomposition, and /v1/evaluate names the strategy that answered.
func TestServerExplain(t *testing.T) {
	_, c := newService(t, Options{})
	runs := registerFixture(t, c)

	type explainResp struct {
		Run       string `json:"run"`
		Query     string `json:"query"`
		Safe      bool   `json:"safe"`
		Strategy  string `json:"strategy"`
		SeedTag   string `json:"seed_tag"`
		SeedCount *int   `json:"seed_count"`
		Costs     *struct {
			RPL    float64 `json:"rpl"`
			OptRPL float64 `json:"optrpl"`
			Seeded float64 `json:"seeded"`
		} `json:"costs"`
		SafeSubtrees    []string `json:"safe_subtrees"`
		RelationalNodes int      `json:"relational_nodes"`
	}

	var ex explainResp
	c.do("POST", "/v1/explain", map[string]any{"run": runs[0], "query": "_*.publish"},
		http.StatusOK, &ex)
	if !ex.Safe || ex.Costs == nil {
		t.Fatalf("explain safe query = %+v", ex)
	}
	switch ex.Strategy {
	case "rpl", "optrpl", "seeded":
	default:
		t.Fatalf("safe strategy = %q", ex.Strategy)
	}
	if ex.SeedTag != "publish" {
		t.Errorf("seed tag = %q, want publish (rarest required tag)", ex.SeedTag)
	}
	if ex.SeedCount == nil || *ex.SeedCount < 1 {
		t.Errorf("seed count = %v, want >= 1 alongside the seed tag", ex.SeedCount)
	}
	if ex.Costs.RPL <= 0 || ex.Costs.OptRPL <= 0 {
		t.Errorf("cost estimates missing: %+v", ex.Costs)
	}

	// A required tag absent from the run reports seed_count 0 explicitly —
	// zero is meaningful (the query cannot match), not an omitted field.
	var exAbsent explainResp
	c.do("POST", "/v1/explain", map[string]any{"run": runs[0], "query": "_*.ghost._*"},
		http.StatusOK, &exAbsent)
	if exAbsent.SeedTag != "ghost" || exAbsent.SeedCount == nil || *exAbsent.SeedCount != 0 {
		t.Errorf("absent-tag explain = seed %q count %v, want ghost with explicit 0", exAbsent.SeedTag, exAbsent.SeedCount)
	}

	var exU explainResp
	c.do("POST", "/v1/explain", map[string]any{"run": runs[0], "query": "a1.(_*.s._*)"},
		http.StatusOK, &exU)
	if exU.Safe || exU.Strategy != "decompose" || exU.Costs != nil {
		t.Fatalf("explain unsafe query = %+v", exU)
	}
	if exU.RelationalNodes == 0 {
		t.Errorf("unsafe explain reports zero relational nodes: %+v", exU)
	}

	// The evaluate response carries the strategy the plan chose.
	var ev struct {
		Strategy string `json:"strategy"`
		Count    int    `json:"count"`
	}
	c.do("POST", "/v1/evaluate", map[string]any{"run": runs[0], "query": "_*.publish", "count_only": true},
		http.StatusOK, &ev)
	if ev.Strategy != ex.Strategy {
		t.Errorf("evaluate strategy %q != explain strategy %q", ev.Strategy, ex.Strategy)
	}
	c.do("POST", "/v1/evaluate", map[string]any{"run": runs[0], "query": "a1.(_*.s._*)", "count_only": true},
		http.StatusOK, &ev)
	if ev.Strategy != "decompose" {
		t.Errorf("unsafe evaluate strategy = %q, want decompose", ev.Strategy)
	}

	// Error paths share the uniform shape.
	var eb struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	c.do("POST", "/v1/explain", map[string]any{"run": "nope", "query": "_*"},
		http.StatusNotFound, &eb)
	if eb.Error.Code != "not_found" {
		t.Errorf("explain unknown run code = %q", eb.Error.Code)
	}
	c.do("POST", "/v1/explain", map[string]any{"run": runs[0], "query": "(("},
		http.StatusBadRequest, &eb)
	if eb.Error.Code != "bad_query" {
		t.Errorf("explain bad query code = %q", eb.Error.Code)
	}
}

func TestServerErrorShape(t *testing.T) {
	_, c := newService(t, Options{})
	registerFixture(t, c)

	check := func(method, path string, body any, wantStatus int, wantCode string) {
		t.Helper()
		var eb struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		c.do(method, path, body, wantStatus, &eb)
		if eb.Error.Code != wantCode || eb.Error.Message == "" {
			t.Errorf("%s %s: error = %+v, want code %q with a message", method, path, eb.Error, wantCode)
		}
	}

	check("POST", "/v1/specs", map[string]any{"name": "intro", "spec": mustSpecJSON(t)},
		http.StatusConflict, "conflict")
	check("POST", "/v1/specs", map[string]any{"name": ""}, http.StatusBadRequest, "bad_request")
	check("POST", "/v1/runs", map[string]any{"name": "r9", "spec": "ghost", "derive": map[string]any{}},
		http.StatusNotFound, "not_found")
	check("POST", "/v1/runs", map[string]any{"name": "run-a", "spec": "intro", "derive": map[string]any{}},
		http.StatusConflict, "conflict")
	check("POST", "/v1/runs", map[string]any{
		"name": "r9", "spec": "intro", "derive": map[string]any{"favor_module": "nope"},
	}, http.StatusBadRequest, "bad_derive")
	check("POST", "/v1/runs", map[string]any{"name": "r9", "spec": "intro"},
		http.StatusBadRequest, "bad_request")
	check("POST", "/v1/runs", map[string]any{
		"name": "r9", "spec": "intro", "run": json.RawMessage(`{"nodes":[{"name":"x:1","module":"nope","label":""}]}`),
	}, http.StatusBadRequest, "bad_run")
	check("POST", "/v1/evaluate", map[string]any{"run": "ghost", "query": "_*"},
		http.StatusNotFound, "not_found")
	check("POST", "/v1/evaluate", map[string]any{"run": "run-a", "query": "(("},
		http.StatusBadRequest, "bad_query")
	check("POST", "/v1/pairwise", map[string]any{"run": "run-a", "query": "_*", "from": "nope:1", "to": "nope:2"},
		http.StatusNotFound, "not_found")
	check("POST", "/v1/batch", map[string]any{"runs": []string{"run-a"}, "queries": []string{}},
		http.StatusBadRequest, "bad_request")
	check("POST", "/v1/batch", map[string]any{"runs": []string{"run-a"}, "queries": []string{"(("}},
		http.StatusBadRequest, "bad_query")
	check("GET", "/v1/nope", nil, http.StatusNotFound, "not_found")

	// Unknown runs inside a batch are per-item errors, not request errors.
	var batch struct {
		Results []struct {
			Run   string `json:"run"`
			Error string `json:"error"`
		} `json:"results"`
	}
	c.do("POST", "/v1/batch", map[string]any{"runs": []string{"run-a", "ghost"}, "queries": []string{"_*"}},
		http.StatusOK, &batch)
	if len(batch.Results) != 2 || batch.Results[0].Error != "" || batch.Results[1].Error == "" {
		t.Errorf("batch per-item errors = %+v", batch.Results)
	}
}

func mustSpecJSON(t testing.TB) json.RawMessage {
	t.Helper()
	data, err := introSpec(t).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServerInFlightLimit saturates a 1-slot server and verifies the next
// request is rejected with 429 and the error shape, while /healthz (which
// bypasses the limiter) keeps answering.
func TestServerInFlightLimit(t *testing.T) {
	cat := provrpq.NewCatalog(provrpq.CatalogOptions{})
	srv := New(cat, Options{MaxInFlight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.sem <- struct{}{} // hold the only slot, as an in-flight request would
	resp, err := ts.Client().Get(ts.URL + "/v1/specs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	var eb struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "overloaded" {
		t.Errorf("rejection code = %q, want overloaded", eb.Error.Code)
	}

	// healthz and the metrics scrape stay reachable even while
	// saturated — observability must not die with the service.
	for _, path := range []string{"/healthz", "/metrics"} {
		hr, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Errorf("%s = %d under load, want 200", path, hr.StatusCode)
		}
	}

	<-srv.sem // release; normal service resumes
	ok, err := ts.Client().Get(ts.URL + "/v1/specs")
	if err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Errorf("released server answered %d, want 200", ok.StatusCode)
	}
}

// scanServer serves one 30K-edge run of the paper's specification, "big",
// under a 300ms deadline, its index, labels and planner built by a first
// request. Nearly every pair of its nodes is connected, so _* has 424M
// pairs in 212M blocks: seconds of walk, even for the count pass alone.
func scanServer(t *testing.T) (*Server, *httptest.Server, *testClient) {
	t.Helper()
	cat := provrpq.NewCatalog(provrpq.CatalogOptions{})
	specJSON, err := wf.PaperSpec().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	spec := &provrpq.Spec{}
	if err := spec.UnmarshalJSON(specJSON); err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterSpec("paper", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DeriveRun("big", "paper", provrpq.DeriveOptions{Seed: 1, TargetEdges: 30000}); err != nil {
		t.Fatal(err)
	}
	srv := New(cat, Options{Timeout: 300 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := &testClient{t: t, base: ts.URL, hc: ts.Client()}
	// The run's index, labels and planner are built by its first request, and
	// not interruptibly: keep them out of the timing.
	c.do("POST", "/v1/evaluate", map[string]any{"run": "big", "query": "e", "count_only": true}, http.StatusOK, nil)
	return srv, ts, c
}

// TestServerTimeout: an evaluate and a count_only batch whose deadline ends
// their evaluation answer 503 with the JSON timeout body, which is not
// tallied as a failure; /healthz, outside the deadline, still answers.
func TestServerTimeout(t *testing.T) {
	_, ts, c := scanServer(t)
	failed := c.scrape()["provrpq_http_failed_total"]
	for _, call := range []struct{ path, body string }{
		{"/v1/evaluate", `{"run":"big","query":"_*","count_only":true}`},
		{"/v1/batch", `{"runs":["big"],"queries":["_*"],"count_only":true}`},
	} {
		resp, err := ts.Client().Post(ts.URL+call.path, "application/json", strings.NewReader(call.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s of _* over the run answered %d within the 300ms deadline; the fixture is too small to time out", call.path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s timeout Content-Type = %q, want application/json", call.path, ct)
		}
		if !strings.Contains(string(raw), `"code":"timeout"`) {
			t.Errorf("%s timeout body = %s", call.path, raw)
		}
	}
	if got := c.scrape()["provrpq_http_failed_total"]; got != failed {
		t.Errorf("provrpq_http_failed_total went from %v to %v: a timeout is not a failed request", failed, got)
	}

	// healthz sits outside the limiter and the deadline, and still answers.
	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", hr.StatusCode)
	}
}

// TestServerCancelledEvaluateFreesSlot: an evaluation whose request timed out
// (503 timeout) or whose client hung up stops at its next block of pairs, so
// its in-flight slot comes back while the scan it gave up — _* over a 30K-edge
// run, seconds of walk — would still be running; and giving up is not tallied
// as a failed evaluation.
func TestServerCancelledEvaluateFreesSlot(t *testing.T) {
	srv, ts, c := scanServer(t)
	// limit 0 keeps a scan that is not stopped from also allocating its 424M
	// pairs.
	body := `{"run":"big","query":"_*","limit":0}`
	failed := c.scrape()["provrpq_http_failed_total"]

	freed := func(what string, since time.Time) {
		t.Helper()
		for srv.inFlight.Load() != 0 {
			if time.Since(since) > time.Second {
				t.Fatalf("%s: the evaluation still holds its in-flight slot a second later", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("_* over the run answered %d within the 300ms deadline; the fixture is too small to time out", resp.StatusCode)
	}
	freed("timed out", time.Now())

	ctx, hangUp := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/evaluate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(100*time.Millisecond, hangUp)
	if resp, err := ts.Client().Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("the request outlived its client's hang-up: status %d", resp.StatusCode)
	}
	freed("client gone", time.Now())

	if got := c.scrape()["provrpq_http_failed_total"]; got != failed {
		t.Errorf("provrpq_http_failed_total went from %v to %v: a cancelled evaluation is not a failed one", failed, got)
	}
}

// BenchmarkServerBatch measures end-to-end batch throughput over HTTP:
// one spec, three runs, three queries per request. It reports
// queries/sec — one "query" being one (run, query) cell.
func BenchmarkServerBatch(b *testing.B) {
	cat := provrpq.NewCatalog(provrpq.CatalogOptions{})
	if err := cat.RegisterSpec("intro", introSpec(b)); err != nil {
		b.Fatal(err)
	}
	runs := []string{"run-a", "run-b", "run-c"}
	for i, name := range runs {
		if _, err := cat.DeriveRun(name, "intro", provrpq.DeriveOptions{Seed: int64(i + 1), TargetEdges: 500}); err != nil {
			b.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(cat, Options{}).Handler())
	defer ts.Close()
	queries := []string{"_*.s._*.publish", "ingest._*", "_*.s._*"}
	body, err := json.Marshal(map[string]any{"runs": runs, "queries": queries, "count_only": true})
	if err != nil {
		b.Fatal(err)
	}
	cells := len(runs) * len(queries)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("batch = %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// TestServerSnapshotAndRestart drives the durable path over the wire:
// register → derive → upload against a store-backed catalog, read the
// snapshot endpoint, then stand up a second server from the same store
// (a process restart) and require identical evaluation answers without
// any re-derivation.
func TestServerSnapshotAndRestart(t *testing.T) {
	// An in-memory catalog advertises non-durability.
	_, plain := newService(t, Options{})
	var probe struct {
		Durable bool `json:"durable"`
	}
	plain.do("GET", "/v1/snapshot", nil, http.StatusOK, &probe)
	if probe.Durable {
		t.Fatal("storeless catalog claims to be durable")
	}

	dir := t.TempDir()
	st, err := provrpq.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat := provrpq.NewCatalog(provrpq.CatalogOptions{Store: st})
	ts := httptest.NewServer(New(cat, Options{}).Handler())
	t.Cleanup(ts.Close)
	c := &testClient{t: t, base: ts.URL, hc: ts.Client()}
	runs := registerFixture(t, c)

	// Upload path must be durable too: round-trip a run through JSON.
	spec, _ := cat.Spec("intro")
	native, err := spec.Derive(provrpq.DeriveOptions{Seed: 7, TargetEdges: 90})
	if err != nil {
		t.Fatal(err)
	}
	runJSON, err := provrpq.EncodeRun(native)
	if err != nil {
		t.Fatal(err)
	}
	c.do("POST", "/v1/runs", map[string]any{
		"name": "uploaded", "spec": "intro", "run": json.RawMessage(runJSON),
	}, http.StatusCreated, nil)
	runs = append(runs, "uploaded")

	var snap struct {
		Durable bool              `json:"durable"`
		Dir     string            `json:"dir"`
		Specs   []string          `json:"specs"`
		Runs    map[string]string `json:"runs"`
	}
	c.do("GET", "/v1/snapshot", nil, http.StatusOK, &snap)
	if !snap.Durable || snap.Dir != dir {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.Specs) != 1 || snap.Specs[0] != "intro" {
		t.Fatalf("snapshot specs = %v", snap.Specs)
	}
	if len(snap.Runs) != len(runs) || snap.Runs["uploaded"] != "intro" {
		t.Fatalf("snapshot runs = %v", snap.Runs)
	}

	// "Restart": a fresh catalog from the same directory behind a fresh
	// server must answer every query with the identical pair list.
	st2, err := provrpq.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat2, err := provrpq.NewCatalogFromStore(st2, provrpq.CatalogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(cat2, Options{}).Handler())
	t.Cleanup(ts2.Close)
	c2 := &testClient{t: t, base: ts2.URL, hc: ts2.Client()}

	for _, rn := range runs {
		for _, qs := range []string{"_*.s._*.publish", "ingest._*", "_*.a1._*"} {
			req := map[string]any{"run": rn, "query": qs}
			var before, after struct {
				Count int `json:"count"`
				Pairs []struct {
					From string `json:"from"`
					To   string `json:"to"`
				} `json:"pairs"`
			}
			c.do("POST", "/v1/evaluate", req, http.StatusOK, &before)
			c2.do("POST", "/v1/evaluate", req, http.StatusOK, &after)
			if before.Count != after.Count || len(before.Pairs) != len(after.Pairs) {
				t.Fatalf("(%s, %s): %d pairs before restart, %d after", rn, qs, before.Count, after.Count)
			}
			for i := range before.Pairs {
				if before.Pairs[i] != after.Pairs[i] {
					t.Fatalf("(%s, %s) pair %d: %v before restart, %v after", rn, qs, i, before.Pairs[i], after.Pairs[i])
				}
			}
		}
	}
}

// splitRunJSON carves an encoded run into a base-run payload (the first m
// nodes plus the edges internal to them) and one growth-batch payload (the
// remaining nodes and edges, in the run's final numbering).
func splitRunJSON(t testing.TB, data []byte, m int) (base, batch []byte) {
	t.Helper()
	var rj struct {
		Nodes []json.RawMessage `json:"nodes"`
		Edges []struct {
			From, To int
			Tag      string
		} `json:"edges"`
	}
	if err := json.Unmarshal(data, &rj); err != nil {
		t.Fatal(err)
	}
	if m <= 0 || m >= len(rj.Nodes) {
		t.Fatalf("split point %d outside (0,%d)", m, len(rj.Nodes))
	}
	type edge struct {
		From int    `json:"From"`
		To   int    `json:"To"`
		Tag  string `json:"Tag"`
	}
	var baseEdges, batchEdges []edge
	for _, e := range rj.Edges {
		if e.From < m && e.To < m {
			baseEdges = append(baseEdges, edge(e))
		} else {
			batchEdges = append(batchEdges, edge(e))
		}
	}
	base, err := json.Marshal(map[string]any{"nodes": rj.Nodes[:m], "edges": baseEdges})
	if err != nil {
		t.Fatal(err)
	}
	batch, err = json.Marshal(map[string]any{"nodes": rj.Nodes[m:], "edges": batchEdges})
	if err != nil {
		t.Fatal(err)
	}
	return base, batch
}

// TestServerAppendEdges grows a run over HTTP and checks the grown run
// answers exactly like the same graph uploaded whole.
func TestServerAppendEdges(t *testing.T) {
	cat, c := newService(t, Options{})
	specJSON, err := introSpec(t).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	c.do("POST", "/v1/specs", map[string]any{"name": "intro", "spec": json.RawMessage(specJSON)},
		http.StatusCreated, nil)

	spec, _ := cat.Spec("intro")
	native, err := spec.Derive(provrpq.DeriveOptions{Seed: 21, TargetEdges: 150})
	if err != nil {
		t.Fatal(err)
	}
	fullJSON, err := provrpq.EncodeRun(native)
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, batchJSON := splitRunJSON(t, fullJSON, native.NumNodes()/2)
	c.do("POST", "/v1/runs", map[string]any{"name": "full", "spec": "intro", "run": json.RawMessage(fullJSON)},
		http.StatusCreated, nil)
	c.do("POST", "/v1/runs", map[string]any{"name": "grow", "spec": "intro", "run": json.RawMessage(baseJSON)},
		http.StatusCreated, nil)

	// Error paths first: unknown run, malformed batch, empty batch, batch
	// with an out-of-alphabet tag. None of them may change the run.
	var errResp struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	c.do("POST", "/v1/runs/ghost/edges", json.RawMessage(batchJSON), http.StatusNotFound, &errResp)
	if errResp.Error.Code != "not_found" {
		t.Fatalf("unknown run code = %q", errResp.Error.Code)
	}
	c.do("POST", "/v1/runs/grow/edges", json.RawMessage(`{"edges":[{"From":0,"To":1,"Tag":"nope"}]}`),
		http.StatusBadRequest, &errResp)
	if errResp.Error.Code != "bad_batch" {
		t.Fatalf("bad tag code = %q", errResp.Error.Code)
	}
	c.do("POST", "/v1/runs/grow/edges", json.RawMessage(`{}`), http.StatusBadRequest, &errResp)
	if errResp.Error.Code != "bad_batch" {
		t.Fatalf("empty batch code = %q", errResp.Error.Code)
	}
	// Strict decode: a typo'd key is rejected instead of being silently
	// dropped and a partial batch durably committed.
	c.do("POST", "/v1/runs/grow/edges", json.RawMessage(`{"egdes":[{"From":0,"To":1,"Tag":"s"}]}`),
		http.StatusBadRequest, &errResp)
	if errResp.Error.Code != "bad_batch" {
		t.Fatalf("typo'd batch code = %q", errResp.Error.Code)
	}

	// Build an engine over the base version: the append must not disturb
	// queries already running against it, and the swap must give new
	// lookups the grown run.
	var before struct {
		Count int `json:"count"`
	}
	c.do("POST", "/v1/evaluate", map[string]any{"run": "grow", "query": "_*", "count_only": true},
		http.StatusOK, &before)

	var ar struct {
		Version       int `json:"version"`
		Nodes         int `json:"nodes"`
		Edges         int `json:"edges"`
		AppendedNodes int `json:"appended_nodes"`
		AppendedEdges int `json:"appended_edges"`
		Frontier      int `json:"frontier"`
	}
	c.do("POST", "/v1/runs/grow/edges", json.RawMessage(batchJSON), http.StatusOK, &ar)
	if ar.Version != 1 || ar.Nodes != native.NumNodes() || ar.Edges != native.NumEdges() {
		t.Fatalf("append response = %+v, want version 1 and the full graph size", ar)
	}
	if ar.AppendedNodes == 0 || ar.AppendedEdges == 0 || ar.Frontier == 0 {
		t.Fatalf("append response stats = %+v", ar)
	}

	// The grown run answers exactly like the whole upload, for safe and
	// unsafe queries alike.
	for _, qs := range []string{"_*.s._*.publish", "ingest._*", "_*.a1._*", "_*"} {
		var grown, whole struct {
			Count int                         `json:"count"`
			Pairs []struct{ From, To string } `json:"pairs"`
		}
		c.do("POST", "/v1/evaluate", map[string]any{"run": "grow", "query": qs}, http.StatusOK, &grown)
		c.do("POST", "/v1/evaluate", map[string]any{"run": "full", "query": qs}, http.StatusOK, &whole)
		if grown.Count != whole.Count {
			t.Fatalf("query %s: grown count %d, whole count %d", qs, grown.Count, whole.Count)
		}
		for i := range grown.Pairs {
			if grown.Pairs[i] != whole.Pairs[i] {
				t.Fatalf("query %s pair %d: grown %v, whole %v", qs, i, grown.Pairs[i], whole.Pairs[i])
			}
		}
	}
	if before.Count >= native.NumNodes()*native.NumNodes() {
		t.Fatal("sanity: base count suspicious")
	}

	// Retry safety: an append guarded by expected_version bounces off a
	// stale version with 409 instead of double-applying, a malformed
	// guard is 400, and the correct guard commits.
	smallBatch := json.RawMessage(`{"edges":[{"From":0,"To":1,"Tag":"s"}]}`)
	c.do("POST", "/v1/runs/grow/edges?expected_version=0", smallBatch, http.StatusConflict, &errResp)
	if errResp.Error.Code != "conflict" {
		t.Fatalf("stale expected_version code = %q", errResp.Error.Code)
	}
	c.do("POST", "/v1/runs/grow/edges?expected_version=x", smallBatch, http.StatusBadRequest, &errResp)
	if errResp.Error.Code != "bad_request" {
		t.Fatalf("malformed expected_version code = %q", errResp.Error.Code)
	}
	var ar2 struct {
		Version int `json:"version"`
	}
	c.do("POST", "/v1/runs/grow/edges?expected_version=1", smallBatch, http.StatusOK, &ar2)
	if ar2.Version != 2 {
		t.Fatalf("guarded append version = %d, want 2", ar2.Version)
	}

	// The listing reports the bumped version.
	var listing struct {
		Runs []struct {
			Name    string `json:"name"`
			Version int    `json:"version"`
		} `json:"runs"`
	}
	c.do("GET", "/v1/runs", nil, http.StatusOK, &listing)
	versions := map[string]int{}
	for _, ri := range listing.Runs {
		versions[ri.Name] = ri.Version
	}
	if versions["grow"] != 2 || versions["full"] != 0 {
		t.Fatalf("listed versions = %v", versions)
	}
}

// TestServerEvaluatePaging: limit/offset window the pair list, total always
// reports the full count, and the unpaged request is byte-compatible with
// the pre-paging wire shape.
func TestServerEvaluatePaging(t *testing.T) {
	_, c := newService(t, Options{})
	registerFixture(t, c)

	type page struct {
		Count int                         `json:"count"`
		Total int                         `json:"total"`
		Pairs []struct{ From, To string } `json:"pairs"`
	}
	var full page
	c.do("POST", "/v1/evaluate", map[string]any{"run": "run-a", "query": "_*"}, http.StatusOK, &full)
	if full.Total != full.Count || len(full.Pairs) != full.Total {
		t.Fatalf("unpaged response: count %d, total %d, %d pairs", full.Count, full.Total, len(full.Pairs))
	}
	if full.Total < 10 {
		t.Fatalf("fixture too small to page: %d pairs", full.Total)
	}

	// Walk the windows and reassemble the full list.
	limit := full.Total/3 + 1
	var got []struct{ From, To string }
	for off := 0; off < full.Total; off += limit {
		var p page
		c.do("POST", "/v1/evaluate",
			map[string]any{"run": "run-a", "query": "_*", "limit": limit, "offset": off},
			http.StatusOK, &p)
		if p.Total != full.Total || p.Count != full.Total {
			t.Fatalf("window at %d: total %d, count %d, want %d", off, p.Total, p.Count, full.Total)
		}
		if len(p.Pairs) > limit {
			t.Fatalf("window at %d: %d pairs exceeds limit %d", off, len(p.Pairs), limit)
		}
		got = append(got, p.Pairs...)
	}
	if len(got) != full.Total {
		t.Fatalf("reassembled %d pairs, want %d", len(got), full.Total)
	}
	for i := range got {
		if got[i] != full.Pairs[i] {
			t.Fatalf("pair %d: paged %v, full %v", i, got[i], full.Pairs[i])
		}
	}

	// Edges of the parameter space.
	var p page
	c.do("POST", "/v1/evaluate", map[string]any{"run": "run-a", "query": "_*", "limit": 0}, http.StatusOK, &p)
	if len(p.Pairs) != 0 || p.Total != full.Total {
		t.Fatalf("limit 0: %d pairs, total %d", len(p.Pairs), p.Total)
	}
	c.do("POST", "/v1/evaluate", map[string]any{"run": "run-a", "query": "_*", "offset": full.Total + 5}, http.StatusOK, &p)
	if len(p.Pairs) != 0 || p.Total != full.Total {
		t.Fatalf("offset past end: %d pairs, total %d", len(p.Pairs), p.Total)
	}
	var errResp struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	c.do("POST", "/v1/evaluate", map[string]any{"run": "run-a", "query": "_*", "limit": -1}, http.StatusBadRequest, &errResp)
	if errResp.Error.Code != "bad_request" {
		t.Fatalf("negative limit code = %q", errResp.Error.Code)
	}
	c.do("POST", "/v1/evaluate", map[string]any{"run": "run-a", "query": "_*", "offset": -1}, http.StatusBadRequest, &errResp)
	if errResp.Error.Code != "bad_request" {
		t.Fatalf("negative offset code = %q", errResp.Error.Code)
	}
}

// TestServerAppendDurableRestart: growth committed over HTTP must survive a
// daemon restart — the append log replays at boot and the restarted server
// answers identically.
func TestServerAppendDurableRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := provrpq.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat := provrpq.NewCatalog(provrpq.CatalogOptions{Store: st})
	ts := httptest.NewServer(New(cat, Options{}).Handler())
	t.Cleanup(ts.Close)
	c := &testClient{t: t, base: ts.URL, hc: ts.Client()}

	specJSON, err := introSpec(t).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	c.do("POST", "/v1/specs", map[string]any{"name": "intro", "spec": json.RawMessage(specJSON)},
		http.StatusCreated, nil)
	spec, _ := cat.Spec("intro")
	native, err := spec.Derive(provrpq.DeriveOptions{Seed: 33, TargetEdges: 120})
	if err != nil {
		t.Fatal(err)
	}
	fullJSON, err := provrpq.EncodeRun(native)
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, batchJSON := splitRunJSON(t, fullJSON, native.NumNodes()/2)
	c.do("POST", "/v1/runs", map[string]any{"name": "live", "spec": "intro", "run": json.RawMessage(baseJSON)},
		http.StatusCreated, nil)
	c.do("POST", "/v1/runs/live/edges", json.RawMessage(batchJSON), http.StatusOK, nil)

	var snap struct {
		Appends map[string]int `json:"appends"`
	}
	c.do("GET", "/v1/snapshot", nil, http.StatusOK, &snap)
	if snap.Appends["live"] != 1 {
		t.Fatalf("snapshot appends = %v, want live:1", snap.Appends)
	}

	var before struct {
		Count int                         `json:"count"`
		Pairs []struct{ From, To string } `json:"pairs"`
	}
	c.do("POST", "/v1/evaluate", map[string]any{"run": "live", "query": "_*"}, http.StatusOK, &before)

	// Restart on the same directory.
	st2, err := provrpq.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat2, err := provrpq.NewCatalogFromStore(st2, provrpq.CatalogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := cat2.RunVersion("live"); v != 1 {
		t.Fatalf("restored version = %d, want 1", v)
	}
	ts2 := httptest.NewServer(New(cat2, Options{}).Handler())
	t.Cleanup(ts2.Close)
	c2 := &testClient{t: t, base: ts2.URL, hc: ts2.Client()}
	var after struct {
		Count int                         `json:"count"`
		Pairs []struct{ From, To string } `json:"pairs"`
	}
	c2.do("POST", "/v1/evaluate", map[string]any{"run": "live", "query": "_*"}, http.StatusOK, &after)
	if before.Count != after.Count || len(before.Pairs) != len(after.Pairs) {
		t.Fatalf("restart changed the answer: %d pairs before, %d after", before.Count, after.Count)
	}
	for i := range before.Pairs {
		if before.Pairs[i] != after.Pairs[i] {
			t.Fatalf("pair %d: %v before restart, %v after", i, before.Pairs[i], after.Pairs[i])
		}
	}
	// Growth continues seamlessly after the restart: the next batch gets
	// the next sequence number and version.
	var errResp struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	c2.do("POST", "/v1/runs/live/edges", json.RawMessage(`{"edges":[{"From":0,"To":0,"Tag":"nope"}]}`),
		http.StatusBadRequest, &errResp)
	if errResp.Error.Code != "bad_batch" {
		t.Fatalf("post-restart bad batch code = %q", errResp.Error.Code)
	}

	// Compaction over HTTP folds the log: appends empty, the version what it
	// was, and a third boot (from the folded base alone) still answers
	// identically at that version.
	var cr struct {
		Compacted bool `json:"compacted"`
		Version   int  `json:"version"`
	}
	c2.do("POST", "/v1/runs/live/compact", nil, http.StatusOK, &cr)
	if !cr.Compacted || cr.Version != 1 {
		t.Fatalf("compact response = %+v, want the run's version, 1", cr)
	}
	var snap2 struct {
		Appends map[string]int `json:"appends"`
	}
	c2.do("GET", "/v1/snapshot", nil, http.StatusOK, &snap2)
	if len(snap2.Appends) != 0 {
		t.Fatalf("snapshot appends after compaction = %v, want empty", snap2.Appends)
	}
	c2.do("POST", "/v1/runs/ghost/compact", nil, http.StatusNotFound, &errResp)
	st3, err := provrpq.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat3, err := provrpq.NewCatalogFromStore(st3, provrpq.CatalogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := cat3.RunVersion("live"); v != 1 {
		t.Fatalf("version after compaction + restart = %d, want 1", v)
	}
	ts3 := httptest.NewServer(New(cat3, Options{}).Handler())
	t.Cleanup(ts3.Close)
	c3 := &testClient{t: t, base: ts3.URL, hc: ts3.Client()}
	var folded struct {
		Count int                         `json:"count"`
		Pairs []struct{ From, To string } `json:"pairs"`
	}
	c3.do("POST", "/v1/evaluate", map[string]any{"run": "live", "query": "_*"}, http.StatusOK, &folded)
	if folded.Count != after.Count || len(folded.Pairs) != len(after.Pairs) {
		t.Fatalf("boot from folded base changed the answer: %d pairs, want %d", folded.Count, after.Count)
	}
	for i := range folded.Pairs {
		if folded.Pairs[i] != after.Pairs[i] {
			t.Fatalf("pair %d: %v from folded base, %v before", i, folded.Pairs[i], after.Pairs[i])
		}
	}
	// The non-durable server refuses compaction.
	_, plain := newService(t, Options{})
	specJSON2, _ := introSpec(t).MarshalJSON()
	plain.do("POST", "/v1/specs", map[string]any{"name": "intro", "spec": json.RawMessage(specJSON2)},
		http.StatusCreated, nil)
	plain.do("POST", "/v1/runs", map[string]any{
		"name": "mem", "spec": "intro", "derive": map[string]any{"seed": 1, "target_edges": 60},
	}, http.StatusCreated, nil)
	plain.do("POST", "/v1/runs/mem/compact", nil, http.StatusBadRequest, &errResp)
	if errResp.Error.Code != "bad_request" {
		t.Fatalf("non-durable compact code = %q", errResp.Error.Code)
	}
}

// TestServerHealthzWedged: when the durable store latches its wedge (an
// ambiguous commit failure — here an injected post-rename dir-fsync
// error), the liveness probe must flip to 503 {"status":"wedged"} so an
// orchestrator restarts the process instead of routing mutations at a
// read-only daemon.
func TestServerHealthzWedged(t *testing.T) {
	st, err := provrpq.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cat := provrpq.NewCatalog(provrpq.CatalogOptions{Store: st})
	ts := httptest.NewServer(New(cat, Options{}).Handler())
	t.Cleanup(ts.Close)
	c := &testClient{t: t, base: ts.URL, hc: ts.Client()}

	specJSON, err := introSpec(t).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	c.do("POST", "/v1/specs", map[string]any{"name": "intro", "spec": json.RawMessage(specJSON)},
		http.StatusCreated, nil)
	spec, _ := cat.Spec("intro")
	native, err := spec.Derive(provrpq.DeriveOptions{Seed: 7, TargetEdges: 120})
	if err != nil {
		t.Fatal(err)
	}
	fullJSON, err := provrpq.EncodeRun(native)
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, batchJSON := splitRunJSON(t, fullJSON, native.NumNodes()/2)
	c.do("POST", "/v1/runs", map[string]any{"name": "live", "spec": "intro", "run": json.RawMessage(baseJSON)},
		http.StatusCreated, nil)

	c.do("GET", "/healthz", nil, http.StatusOK, nil)

	fail := true
	orig := store.FsyncDir
	store.FsyncDir = func(dir string) error {
		if fail {
			return fmt.Errorf("injected fsync failure")
		}
		return orig(dir)
	}
	defer func() { store.FsyncDir = orig }()

	var errResp struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	c.do("POST", "/v1/runs/live/edges", json.RawMessage(batchJSON), http.StatusInternalServerError, &errResp)
	if errResp.Error.Code != "store_failed" {
		t.Fatalf("append with failing dir fsync code = %q, want store_failed", errResp.Error.Code)
	}
	fail = false

	// The wedge latched: health degrades and stays degraded (reopening the
	// directory is the only way out), while reads keep serving.
	var health struct {
		Status string `json:"status"`
	}
	c.do("GET", "/healthz", nil, http.StatusServiceUnavailable, &health)
	if health.Status != "wedged" {
		t.Fatalf("wedged healthz status = %q, want wedged", health.Status)
	}
	c.do("POST", "/v1/evaluate", map[string]any{"run": "live", "query": "_*"}, http.StatusOK, nil)
	c.do("POST", "/v1/runs/live/edges", json.RawMessage(batchJSON), http.StatusInternalServerError, &errResp)
	if errResp.Error.Code != "store_failed" {
		t.Fatalf("append on wedged store code = %q, want store_failed", errResp.Error.Code)
	}
}

// TestServerMetrics scrapes /metrics after real traffic and checks the
// exposition: correct content type, every line well-formed, the HTTP
// route counters, a populated per-strategy evaluation histogram, and
// the per-run generation gauge. This is the contract the CI smoke (and
// any Prometheus) scrapes against.
func TestServerMetrics(t *testing.T) {
	cat, c := newService(t, Options{})
	registerFixture(t, c)
	start := c.scrape()
	c.do("POST", "/v1/evaluate", map[string]any{"run": "run-a", "query": "_*.s._*"}, http.StatusOK, nil)
	c.do("POST", "/v1/evaluate", map[string]any{"run": "run-b", "query": "ingest._*"}, http.StatusOK, nil)

	// An unsafe evaluate is timed under its own strategy label. The
	// registry is process-wide, so count from where the series stands.
	const decomposed = `provrpq_eval_seconds_count{strategy="decompose"}`
	before := c.scrape()[decomposed]
	c.do("POST", "/v1/evaluate", map[string]any{"run": "run-a", "query": "a1.(_*.s._*)"}, http.StatusOK, nil)
	if got := c.scrape()[decomposed]; got != before+1 {
		t.Errorf("%s = %v after one unsafe evaluate, was %v", decomposed, got, before)
	}
	// Every evaluation records the labels it decoded beside its latency,
	// zero included, under the same strategy label.
	now, timed := c.scrape(), 0.0
	for _, s := range []string{"rpl", "optrpl", "seeded", "decompose"} {
		secs := `provrpq_eval_seconds_count{strategy="` + s + `"}`
		units := `provrpq_eval_decode_units_count{strategy="` + s + `"}`
		timed += now[secs] - start[secs]
		if dt, du := now[secs]-start[secs], now[units]-start[units]; dt != du {
			t.Errorf("strategy %s: %v evaluations timed, %v with their decoded labels", s, dt, du)
		}
	}
	if timed != 3 {
		t.Errorf("%v evaluations timed, want the 3 evaluates", timed)
	}

	// A safe evaluate's histogram covers the whole evaluation, the ordering of
	// the result included, not only the strategy's scan: what a list request
	// adds to its sum is at least half of what the handler of a count_only
	// request of the same query — the same evaluation and next to nothing
	// else — takes from first byte to last.
	c.do("POST", "/v1/runs", map[string]any{"name": "dense", "spec": "intro", "derive": map[string]any{"seed": 5, "target_edges": 1500}}, http.StatusCreated, nil)
	dense := map[string]any{"run": "dense", "query": "_*"}
	c.do("POST", "/v1/evaluate", dense, http.StatusOK, nil) // builds the engine's lazy parts
	var listed struct{ Strategy string }
	was := c.scrape()
	c.do("POST", "/v1/evaluate", dense, http.StatusOK, &listed)
	evalSum := `provrpq_eval_seconds_sum{strategy="` + listed.Strategy + `"}`
	evaluated := c.scrape()[evalSum] - was[evalSum]
	const handled = `provrpq_http_request_seconds_sum{route="POST /v1/evaluate"}`
	was = c.scrape()
	c.do("POST", "/v1/evaluate", map[string]any{"run": "dense", "query": "_*", "count_only": true}, http.StatusOK, nil)
	if counted := c.scrape()[handled] - was[handled]; evaluated < counted/2 {
		t.Errorf("%s moved by %.6fs for one list evaluate; the handler of the same evaluation without a list took %.6fs", evalSum, evaluated, counted)
	}

	// One delta on an open watch populates the watch-group series.
	const deltas, rebuilds = "provrpq_watch_delta_seconds_count", "provrpq_watch_rebuilds_total"
	spec, _ := cat.Spec("intro")
	batch := registerGrowingRun(t, c, spec)
	watch := openWatch(t, c.base, "r1", "_*")
	was = c.scrape()
	c.do("POST", "/v1/runs/r1/edges", batch, http.StatusOK, nil)
	readFrame(t, watch)
	if got := c.scrape(); got[deltas] != was[deltas]+1 || got[rebuilds] != was[rebuilds]+1 {
		t.Errorf("after one delta: %s %v (was %v), %s %v (was %v)", deltas, got[deltas], was[deltas], rebuilds, got[rebuilds], was[rebuilds])
	}

	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q, want Prometheus text 0.0.4", ct)
	}
	if id := resp.Header.Get("X-Request-Id"); id == "" {
		t.Errorf("missing X-Request-Id response header")
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Well-formedness: every non-comment line ends in one parseable value,
	// every TYPE line names a known kind.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			kind := line[strings.LastIndexByte(line, ' ')+1:]
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("unknown TYPE %q in line %q", kind, line)
			}
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Errorf("line %q: value %q does not parse: %v", line, line[i+1:], err)
		}
	}

	for _, want := range []string{
		"provrpq_http_requests_total ",
		`provrpq_http_route_requests_total{route="POST /v1/evaluate",code="200"}`,
		`provrpq_http_request_seconds_bucket{route="POST /v1/evaluate",le="+Inf"}`,
		`provrpq_eval_seconds_bucket{strategy=`,
		`provrpq_eval_decode_units_bucket{strategy=`,
		`provrpq_run_generation{run="run-a"} 0`,
		"provrpq_http_in_flight ",
		"provrpq_uptime_seconds ",
		"provrpq_plan_cache_hits_total ",
		`provrpq_watch_delta_seconds_bucket{le="+Inf"}`,
		"provrpq_watch_groups 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}

	// Process identity is one constant gauge.
	if want := `provrpq_build_info{go_version="` + runtime.Version() + `",vcs_revision="`; !strings.Contains(body, want) {
		t.Errorf("/metrics is missing %q", want)
	}
}
