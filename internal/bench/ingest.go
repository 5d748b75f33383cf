package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"provrpq"
	"provrpq/internal/derive"
	"provrpq/internal/metrics"
	"provrpq/internal/server"
	"provrpq/internal/store"
	"provrpq/internal/wf"
	"provrpq/internal/workload"
)

// IngestReport is the machine-readable record of the ingest experiment,
// written as BENCH_ingest.json when Config.JSONDir is set. One row per
// (writer count, watcher count) cell. The rows of the retired serial commit
// protocol are frozen beside it in BENCH_ingest_serial_frozen.json, a file
// no generator writes.
type IngestReport struct {
	Dataset string `json:"dataset"`
	Quick   bool   `json:"quick"`
	// BatchesPerWriter is the growth batches each writer commits; every
	// batch carries a contiguous node/edge segment of that writer's derived
	// run (real nodes, real labels: standing-query deltas are non-trivial).
	BatchesPerWriter int `json:"batches_per_writer"`
	// BestOf is how many times each cell was measured (the fastest run is
	// reported). Shared and virtualized devices degrade several-fold under
	// sustained flush storms and recover after idle; keeping the best run
	// filters that out instead of charging it to whichever cell ran later.
	BestOf int         `json:"best_of"`
	Rows   []IngestRow `json:"rows"`
}

// IngestRow measures one sustained-ingest cell: N concurrent writers, each
// appending durable growth batches to its own run of a shared catalog.
type IngestRow struct {
	Writers int `json:"writers"`
	// Mode is always "group" (leader/follower coalesced commits); the
	// field keeps live rows comparable with the frozen "serial" ones.
	Mode        string  `json:"mode"`
	Watchers    int     `json:"watchers"`
	Edges       int     `json:"edges"`
	Batches     int     `json:"batches"`
	Seconds     float64 `json:"seconds"`
	EdgesPerSec float64 `json:"edges_per_sec"`
	// GroupCommits is the number of manifest writes the row's appends
	// cost; Coalescing = batches / group_commits (1.0 means every batch
	// paid its own manifest fsync).
	GroupCommits uint64  `json:"group_commits"`
	Coalescing   float64 `json:"coalescing"`
	// WatchPairs counts the standing-query delta pairs the row's watchers
	// read off their streams (0 with no watchers); it proves every stream
	// received every append's delta.
	WatchPairs int `json:"watch_pairs"`
}

// FigIngest is the group-commit ingest experiment (beyond the paper):
// sustained durable append throughput at varying writer counts under
// group commit (payload staging outside the lock, coalesced
// leader/follower manifest writes), alone and again with 1, 2 and 10
// streams of one standing query open on every run — the
// serving-while-watching cost, watched as rpqd's clients watch: SSE streams
// on a real server over the catalog, so bounded queues and one retained
// evaluator per (run, query), off the append path. Each writer owns one
// run, so payload staging never contends; the manifest is the single shared
// commit point, which is exactly what group commit amortizes. Batches are
// node-bearing segments of a real derivation (split, not synthesized), so
// every append also pays label validation and the deltas are non-empty.
func FigIngest(cfg Config) error {
	header(cfg, "ingest: durable append throughput under group commit")
	// Small, frequent batches (~5 edges) mirror the streaming-ingest
	// regime the endpoint produces — time-bounded flushes of a live event
	// feed — and are where commit overhead, the thing group commit
	// amortizes, actually dominates.
	writerCounts := []int{1, 2, 4, 8}
	batchesPerWriter := 512
	baseEdges := 400
	growthEdges := 2600
	watcherCounts := []int{0, 1, 2, 10}
	if cfg.Quick {
		writerCounts = []int{1, 4}
		batchesPerWriter = 16
		baseEdges = 150
		growthEdges = 400
		watcherCounts = []int{0, 2}
	}
	d := workload.BioAID()
	// Round-trip the dataset's specification through its JSON encoding to
	// obtain the public-API handle the catalog wants.
	specJSON, err := json.Marshal(d.Spec)
	if err != nil {
		return err
	}
	spec := &provrpq.Spec{}
	if err := spec.UnmarshalJSON(specJSON); err != nil {
		return err
	}
	// One safe standing query (watchability is exactly safety): a workload
	// change that made it unsafe fails the first watch registration.
	watchQuery := d.SafeIFQ(rand.New(rand.NewSource(cfg.Seed+6)), 3, true)

	// One derived-and-split load per writer slot, shared by every cell:
	// all cells ingest identical byte streams, so rows differ only in
	// concurrency and watchers.
	loads := make([]writerLoad, slices.Max(writerCounts))
	for w := range loads {
		if loads[w], err = splitDerivedRun(d.Spec, cfg.Seed+int64(w), baseEdges+growthEdges, batchesPerWriter); err != nil {
			return err
		}
	}

	bestOf := 2
	if cfg.Quick {
		bestOf = 1
	}
	report := IngestReport{Dataset: d.Name, Quick: cfg.Quick, BatchesPerWriter: batchesPerWriter, BestOf: bestOf}
	fmt.Fprintf(cfg.W, "%-9s %-8s %-10s %-10s %-10s %-12s %-12s %-12s %-11s\n",
		"writers", "mode", "watchers", "edges", "seconds", "edges/sec", "commits", "coalescing", "watch-pairs")
	for _, writers := range writerCounts {
		for _, cellWatchers := range watcherCounts {
			var row IngestRow
			for rep := 0; rep < bestOf; rep++ {
				if !cfg.Quick {
					// A settle pause lets a shared device recover from the
					// last cell's fsync storm before the next is measured.
					time.Sleep(5 * time.Second)
				}
				r, err := ingestCell(spec, watchQuery, loads[:writers], cellWatchers)
				if err != nil {
					return err
				}
				if rep == 0 || r.EdgesPerSec > row.EdgesPerSec {
					row = r
				}
			}
			report.Rows = append(report.Rows, row)
			fmt.Fprintf(cfg.W, "%-9d %-8s %-10d %-10d %-10.3f %-12.0f %-12d %-12.2f %-11d\n",
				row.Writers, row.Mode, row.Watchers, row.Edges, row.Seconds,
				row.EdgesPerSec, row.GroupCommits, row.Coalescing, row.WatchPairs)
		}
	}
	return writeFigJSON(cfg, "ingest", report)
}

// writerLoad is one writer's pre-split ingest stream: a base run payload
// plus the growth batches that rebuild the rest of the derivation.
type writerLoad struct {
	base       []byte
	batches    [][]byte
	batchEdges int // total edges across the batches
}

// splitDerivedRun derives one run and splits it into a base prefix and
// `batches` sequential node/edge segments in the batch wire encoding. Each
// edge lands in the earliest segment containing both endpoints, so every
// prefix of the stream is a valid derivation — how the streaming-ingest
// route groups records.
func splitDerivedRun(spec *wf.Spec, seed int64, targetEdges, batches int) (writerLoad, error) {
	run, err := derive.Derive(spec, derive.Options{Seed: seed, TargetEdges: targetEdges})
	if err != nil {
		return writerLoad{}, err
	}
	n := run.NumNodes()
	if n < (batches+1)*2 {
		return writerLoad{}, fmt.Errorf("bench: ingest: run of %d nodes cannot split into %d batches", n, batches)
	}
	// Node cut points: the base keeps the first sixth of the nodes, the
	// batches split the rest evenly.
	cuts := make([]int, batches+1)
	cuts[0] = n / 6
	for i := 1; i <= batches; i++ {
		cuts[i] = cuts[0] + (n-cuts[0])*i/batches
	}
	segEdges := make([][]derive.Edge, batches+1) // 0 is the base
	for _, e := range run.Edges {
		seg := sort.SearchInts(cuts, int(max(e.From, e.To))+1) // first cut above both endpoints
		segEdges[seg] = append(segEdges[seg], e)
	}
	var load writerLoad
	for i, lo := 0, 0; i <= batches; lo, i = cuts[i], i+1 {
		data, err := derive.EncodeBatch(spec, derive.Batch{Nodes: run.Nodes[lo:cuts[i]], Edges: segEdges[i]})
		if err != nil {
			return writerLoad{}, err
		}
		if i == 0 {
			load.base = data
			continue
		}
		load.batches = append(load.batches, data)
		load.batchEdges += len(segEdges[i])
	}
	return load, nil
}

// ingestCell runs one measurement: a fresh durable catalog, one goroutine
// per writer load committing its growth batches to its own run, timed
// wall-clock across all of them.
func ingestCell(spec *provrpq.Spec, watchQuery string, loads []writerLoad, watchers int) (IngestRow, error) {
	dir, err := os.MkdirTemp("", "provrpq-bench-ingest-*")
	if err != nil {
		return IngestRow{}, err
	}
	defer os.RemoveAll(dir)
	st, err := provrpq.OpenStore(dir)
	if err != nil {
		return IngestRow{}, err
	}
	cat := provrpq.NewCatalog(provrpq.CatalogOptions{Store: st})
	if err := cat.RegisterSpec("wf", spec); err != nil {
		return IngestRow{}, err
	}
	// Register bases and pre-decode every batch outside the timed region,
	// so appends measure validation plus durability, not JSON parsing.
	writers := len(loads)
	batchesByWriter := make([][]*provrpq.Batch, writers)
	for w, load := range loads {
		base, err := provrpq.DecodeRun(spec, load.base)
		if err != nil {
			return IngestRow{}, err
		}
		if err := cat.AddRun(runName(w), "wf", base); err != nil {
			return IngestRow{}, err
		}
		for _, data := range load.batches {
			b, err := provrpq.DecodeBatch(spec, data)
			if err != nil {
				return IngestRow{}, err
			}
			batchesByWriter[w] = append(batchesByWriter[w], b)
		}
	}

	ts := httptest.NewServer(server.New(cat, server.Options{MaxWatchers: -1, Metrics: metrics.NewRegistry()}).Handler())
	defer ts.Close()
	streams := make([]*deltaStream, 0, watchers*writers)
	for i := 0; i < watchers*writers; i++ {
		ds, err := openDeltaStream(ts.URL, runName(i%writers), watchQuery, len(loads[i%writers].batches))
		if err != nil {
			return IngestRow{}, err
		}
		defer ds.body.Close()
		streams = append(streams, ds)
	}

	groupsBefore, _ := store.CommitStats()
	var wg sync.WaitGroup
	errs := make([]error, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, b := range batchesByWriter[w] {
				if _, err := cat.AppendEdges(runName(w), b); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return IngestRow{}, err
		}
	}

	// The streams finish outside the timed region: the rate is the writers'.
	watchPairs := 0
	for _, ds := range streams {
		if err := <-ds.done; err != nil {
			return IngestRow{}, err
		}
		watchPairs += ds.pairs
	}

	totalBatches, totalEdges := 0, 0
	for _, load := range loads {
		totalBatches += len(load.batches)
		totalEdges += load.batchEdges
	}
	// CommitStats is process-wide; the delta across this cell's timed
	// region is this cell's commits (cells run one at a time).
	groupsAfter, _ := store.CommitStats()
	row := IngestRow{
		Writers: writers, Mode: "group", Watchers: watchers,
		Edges: totalEdges, Batches: totalBatches,
		Seconds:      elapsed.Seconds(),
		EdgesPerSec:  float64(totalEdges) / elapsed.Seconds(),
		GroupCommits: groupsAfter - groupsBefore,
		WatchPairs:   watchPairs,
	}
	if row.GroupCommits > 0 {
		row.Coalescing = float64(totalBatches) / float64(row.GroupCommits)
	}
	return row, nil
}

func runName(w int) string { return fmt.Sprintf("ingest-%d", w) }

// deltaStream is one open /v1/watch stream: a goroutine reads it until it
// has seen the expected number of delta events, summing their pair counts.
type deltaStream struct {
	body  io.ReadCloser
	pairs int
	done  chan error // receives the reader's verdict, once
}

// openDeltaStream registers the standing query and returns once its
// snapshot event has arrived, so the stream is live before any append.
func openDeltaStream(base, run, query string, deltas int) (*deltaStream, error) {
	resp, err := http.Post(base+"/v1/watch", "application/json",
		strings.NewReader(fmt.Sprintf(`{"run":%q,"query":%q}`, run, query)))
	if err != nil {
		return nil, err
	}
	ds := &deltaStream{body: resp.Body, done: make(chan error, 1)}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	if event, _, err := readSSE(br); err != nil || event != "snapshot" {
		resp.Body.Close()
		return nil, fmt.Errorf("bench: ingest: watch on %s: status %d, first event %q: %v", run, resp.StatusCode, event, err)
	}
	go func() {
		for i := 0; i < deltas; i++ {
			event, data, err := readSSE(br)
			if err != nil || event != "delta" {
				ds.done <- fmt.Errorf("bench: ingest: watch on %s: event %q after %d deltas: %v", run, event, i, err)
				return
			}
			_, rest, _ := bytes.Cut(data, []byte(`"count":`))
			n, err := strconv.Atoi(string(rest[:max(0, bytes.IndexByte(rest, ','))]))
			if err != nil {
				ds.done <- fmt.Errorf("bench: ingest: watch on %s: delta without a count: %.80s", run, data)
				return
			}
			ds.pairs += n
		}
		ds.done <- nil
	}()
	return ds, nil
}

// readSSE reads one Server-Sent Event: its name and its data line.
func readSSE(br *bufio.Reader) (event string, data []byte, err error) {
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return event, data, err
		}
		if v, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
			event = string(bytes.TrimSpace(v))
		} else if v, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
			data = v
		} else if len(line) == 1 && event != "" {
			return event, data, nil
		}
	}
}
