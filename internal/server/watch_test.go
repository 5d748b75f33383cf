package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"provrpq"
	"provrpq/internal/metrics"
)

// openWatch registers a standing query and returns its stream positioned
// after the snapshot event. The deadline turns an event that never arrives
// into a failed read instead of a hung test.
func openWatch(t *testing.T, base, run, query string) *bufio.Reader {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	body, _ := json.Marshal(map[string]string{"run": run, "query": query})
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/watch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch %q = %d", query, resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	if frame := readFrame(t, br); !strings.HasPrefix(frame, "event: snapshot\n") {
		t.Fatalf("first frame = %q, want a snapshot", frame)
	}
	return br
}

// registerGrowingRun registers the first half of a derived run as "r1" and
// returns the growth batch that completes it.
func registerGrowingRun(t *testing.T, c *testClient, spec *provrpq.Spec) json.RawMessage {
	t.Helper()
	native, err := spec.Derive(provrpq.DeriveOptions{Seed: 41, TargetEdges: 180})
	if err != nil {
		t.Fatal(err)
	}
	fullJSON, err := provrpq.EncodeRun(native)
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, batches := splitRunJSONAt(t, fullJSON, []int{native.NumNodes() / 2})
	c.do("POST", "/v1/runs", map[string]any{"name": "r1", "spec": "intro", "run": json.RawMessage(baseJSON)},
		http.StatusCreated, nil)
	return batches[0]
}

// readFrame reads one SSE event, verbatim.
func readFrame(t *testing.T, br *bufio.Reader) string {
	t.Helper()
	var frame strings.Builder
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream after %q: %v", frame.String(), err)
		}
		if frame.WriteString(line); line == "\n" {
			return frame.String()
		}
	}
}

// TestServerWatchGroups: streams of one (run, canonical query) share one
// group — one evaluation and one encoded frame per event, whatever the
// spelling of the query — another query gets a group of its own, a member
// that stops draining is dropped as lagged without disturbing the others,
// and the last member out takes the group with it.
func TestServerWatchGroups(t *testing.T) {
	cat := provrpq.NewCatalog(provrpq.CatalogOptions{})
	srv := New(cat, Options{Metrics: metrics.NewRegistry()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := &testClient{t: t, base: ts.URL, hc: ts.Client()}
	registerFixture(t, c)
	spec, _ := cat.Spec("intro")
	batch := registerGrowingRun(t, c, spec)
	// Version-bumping batches that create nothing: their deltas are empty.
	empty, err := provrpq.DecodeBatch(spec, []byte(`{"nodes":[],"edges":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	appendEmpty := func() {
		t.Helper()
		if _, err := cat.AppendEdges("r1", empty); err != nil {
			t.Fatal(err)
		}
	}
	gauge := func(name string) float64 { return c.scrape()[name] }

	a := openWatch(t, c.base, "r1", "_*.s._*.publish")
	b := openWatch(t, c.base, "r1", "_*.(s)._*.publish")
	other := openWatch(t, c.base, "r1", "_*")
	if g, w := gauge("provrpq_watch_groups"), gauge("provrpq_watchers"); g != 2 || w != 3 {
		t.Fatalf("%v groups and %v watchers, want 2 and 3", g, w)
	}

	c.do("POST", "/v1/runs/r1/edges", batch, http.StatusOK, nil)
	fa, fb, fo := readFrame(t, a), readFrame(t, b), readFrame(t, other)
	if !strings.HasPrefix(fa, "event: delta\n") || fa != fb || strings.Contains(fa, `"count":0,`) {
		t.Fatalf("members of one group read different frames:\n%q\n%q", fa, fb)
	}
	if !strings.HasPrefix(fo, "event: delta\n") {
		t.Fatalf("the other query's frame = %q", fo)
	}
	if n := gauge("provrpq_watch_delta_seconds_count"); n != 2 {
		t.Fatalf("%v delta evaluations for one event and two groups, want 2", n)
	}
	if n := gauge("provrpq_watch_rebuilds_total"); n != 2 {
		t.Fatalf("%v rebuilds after each group's first event, want 2", n)
	}

	// A member nobody drains: its queue takes watchQueueLen frames, the next
	// ends it.
	q := provrpq.MustParseQuery("_*.s._*.publish")
	g, stuck := srv.joinWatch("r1", q)
	if g == nil || gauge("provrpq_watch_groups") != 2 {
		t.Fatalf("a third stream of the query did not join its group")
	}
	for i := 0; i <= watchQueueLen; i++ {
		appendEmpty()
		if fa, fb := readFrame(t, a), readFrame(t, b); fa != fb || !strings.HasPrefix(fa, "event: delta\n") {
			t.Fatalf("append %d: frames %q and %q", i, fa, fb)
		}
	}
	select {
	case last := <-stuck.end:
		if !bytes.HasPrefix(last, []byte("event: lagged\n")) {
			t.Fatalf("stuck member ended with %q, want lagged", last)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a member with a full queue was not ended")
	}
	if n := gauge("provrpq_watch_dropped_total"); n != 1 {
		t.Fatalf("%v dropped watchers, want 1", n)
	}
	srv.leaveWatch(g, stuck)

	// The survivors are undisturbed; when they go, so do the groups.
	appendEmpty()
	if fa, fb := readFrame(t, a), readFrame(t, b); fa != fb || !strings.Contains(fa, `"version":`) {
		t.Fatalf("after the drop: frames %q and %q", fa, fb)
	}
	srv.CloseWatches()
	for _, br := range []*bufio.Reader{a, b, other} {
		frame := readFrame(t, br)
		for strings.HasPrefix(frame, "event: delta\n") { // other never read its deltas
			frame = readFrame(t, br)
		}
		if !strings.HasPrefix(frame, "event: closed\n") {
			t.Fatalf("after CloseWatches: frame %q, want closed", frame)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); gauge("provrpq_watch_groups") != 0 || gauge("provrpq_watchers") != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%v groups and %v watchers left after every stream closed", gauge("provrpq_watch_groups"), gauge("provrpq_watchers"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.do("POST", "/v1/watch", map[string]string{"run": "r1", "query": "_*"}, http.StatusServiceUnavailable, nil)
}

// TestServerShutdownWithOpenWatch: http.Server.Shutdown waits for every
// connection to go idle, and an idle watch never does on its own — with
// CloseWatches registered the stream ends with a closed event and the
// shutdown completes at once instead of running out its grace period.
func TestServerShutdownWithOpenWatch(t *testing.T) {
	cat := provrpq.NewCatalog(provrpq.CatalogOptions{})
	srv := New(cat, Options{Metrics: metrics.NewRegistry()})
	httpSrv := &http.Server{Handler: srv.Handler()}
	httpSrv.RegisterOnShutdown(srv.CloseWatches)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	c := &testClient{t: t, base: "http://" + ln.Addr().String(), hc: http.DefaultClient}
	registerFixture(t, c)
	br := openWatch(t, c.base, "run-a", "_*")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := httpSrv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with an open watch: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("shutdown with an open watch took %v", took)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve = %v", err)
	}
	if frame := readFrame(t, br); !strings.HasPrefix(frame, "event: closed\n") {
		t.Fatalf("last frame = %q, want closed", frame)
	}
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("the stream stayed open after its closed event")
	}
}
