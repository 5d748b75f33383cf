package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"provrpq"
	"provrpq/internal/store"
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
	// batch carries a contiguous node/edge segment of that writer's
	// derived run (real nodes with real labels, so standing-query deltas
	// are non-trivial).
	BatchesPerWriter int `json:"batches_per_writer"`
	// BestOf is how many times each throughput cell was measured (the
	// fastest run is reported). Shared and virtualized devices degrade
	// several-fold under sustained flush storms and recover after idle;
	// keeping the best run filters that interference out instead of
	// attributing the device's mood to whichever cell ran later.
	BestOf int         `json:"best_of"`
	Rows   []IngestRow `json:"rows"`
}

// IngestRow measures one sustained-ingest cell: N concurrent writers,
// each appending durable growth batches to its own run of a shared
// catalog.
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
	// WatchPairs counts the standing-query delta pairs the row's
	// watchers computed (0 with no watchers); it proves the subscribers
	// did the per-append delta work while the writers ran.
	WatchPairs int `json:"watch_pairs"`
}

// FigIngest is the group-commit ingest experiment (beyond the paper):
// sustained durable append throughput at varying writer counts under
// group commit (payload staging outside the lock, coalesced
// leader/follower manifest writes), alone and again with standing queries
// subscribed — the serving-while-watching cost. Each writer owns one run,
// so payload staging never contends; the manifest is the single shared
// commit point, which is exactly what group commit amortizes. Batches are
// node-bearing segments of a real derivation (split, not synthesized), so
// every append also pays label validation and the watchers' deltas are
// non-empty.
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
	watchers := 2
	if cfg.Quick {
		writerCounts = []int{1, 4}
		batchesPerWriter = 16
		baseEdges = 150
		growthEdges = 400
		watchers = 2
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
	// One safe standing query (watchability is exactly safety), validated
	// here so a workload change fails loudly instead of skewing the
	// watcher rows with parse errors.
	r := rand.New(rand.NewSource(cfg.Seed + 6))
	watchQuery, err := provrpq.ParseQuery(d.SafeIFQ(r, 3, true))
	if err != nil {
		return err
	}

	// One derived-and-split load per writer slot, shared by every cell:
	// all cells ingest identical byte streams, so rows differ only in
	// concurrency and watchers.
	maxWriters := 0
	for _, w := range writerCounts {
		if w > maxWriters {
			maxWriters = w
		}
	}
	loads := make([]writerLoad, maxWriters)
	for w := range loads {
		if loads[w], err = splitDerivedRun(spec, cfg.Seed+int64(w), baseEdges+growthEdges, batchesPerWriter); err != nil {
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
		for _, cellWatchers := range []int{0, watchers} {
			// Throughput cells run bestOf times, fastest kept (see
			// IngestReport.BestOf); the watcher cells are dominated by the
			// subscribers' delta CPU, not the device, so once is enough.
			reps := bestOf
			if cellWatchers > 0 {
				reps = 1
			}
			var row IngestRow
			for rep := 0; rep < reps; rep++ {
				if !cfg.Quick {
					// Sustained fsync storms degrade shared/virtualized
					// devices across cells; a settle pause lets the device
					// recover so later cells are not measured against a
					// slower disk than earlier ones.
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

// splitDerivedRun derives one run and splits its JSON encoding into a
// base prefix and `batches` sequential node/edge segments. Each edge
// lands in the earliest segment containing both endpoints, so every
// batch's edges reference only already-committed or same-batch nodes —
// any prefix of the stream is a valid derivation, mirroring how the
// streaming-ingest route groups records.
func splitDerivedRun(spec *provrpq.Spec, seed int64, targetEdges, batches int) (writerLoad, error) {
	run, err := spec.Derive(provrpq.DeriveOptions{Seed: seed, TargetEdges: targetEdges})
	if err != nil {
		return writerLoad{}, err
	}
	data, err := provrpq.EncodeRun(run)
	if err != nil {
		return writerLoad{}, err
	}
	var full struct {
		Nodes []json.RawMessage `json:"nodes"`
		Edges []struct {
			From, To int
			Tag      string
		} `json:"edges"`
	}
	if err := json.Unmarshal(data, &full); err != nil {
		return writerLoad{}, err
	}
	n := len(full.Nodes)
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
	segEdges := make([][]int, batches+1) // segment -> edge indexes; 0 is the base
	for ei, e := range full.Edges {
		hi := e.From
		if e.To > hi {
			hi = e.To
		}
		seg := 0
		for seg < batches && hi >= cuts[seg] {
			seg++
		}
		segEdges[seg] = append(segEdges[seg], ei)
	}
	encode := func(nodes []json.RawMessage, edgeIdx []int) ([]byte, error) {
		var seg struct {
			Nodes []json.RawMessage `json:"nodes"`
			Edges []json.RawMessage `json:"edges"`
		}
		seg.Nodes = nodes
		for _, ei := range edgeIdx {
			e := full.Edges[ei]
			seg.Edges = append(seg.Edges, json.RawMessage(
				fmt.Sprintf(`{"From":%d,"To":%d,"Tag":%q}`, e.From, e.To, e.Tag)))
		}
		return json.Marshal(seg)
	}
	load := writerLoad{}
	if load.base, err = encode(full.Nodes[:cuts[0]], segEdges[0]); err != nil {
		return writerLoad{}, err
	}
	for i := 1; i <= batches; i++ {
		b, err := encode(full.Nodes[cuts[i-1]:cuts[i]], segEdges[i])
		if err != nil {
			return writerLoad{}, err
		}
		load.batches = append(load.batches, b)
		load.batchEdges += len(segEdges[i])
	}
	return load, nil
}

// ingestCell runs one measurement: a fresh durable catalog, one goroutine
// per writer load committing its growth batches to its own run, timed
// wall-clock across all of them.
func ingestCell(spec *provrpq.Spec, watchQuery *provrpq.Query,
	loads []writerLoad, watchers int) (IngestRow, error) {
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

	watchPairs := 0
	if watchers > 0 {
		var wmu sync.Mutex
		for i := 0; i < watchers; i++ {
			cancel := cat.SubscribeAppends(func(ev provrpq.AppendEvent) {
				pairs, err := cat.DeltaPairs(ev, watchQuery)
				if err != nil {
					return // surfaced by the zero watch_pairs count
				}
				wmu.Lock()
				watchPairs += len(pairs)
				wmu.Unlock()
			})
			defer cancel()
		}
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
