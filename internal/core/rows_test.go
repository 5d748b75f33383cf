package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"provrpq/internal/derive"
	"provrpq/internal/reach"
	"provrpq/internal/rel"
	"provrpq/internal/wf"
)

// pairsOf expands a window into index pairs, checking Len on the way.
func pairsOf(t *testing.T, r *Rows) [][2]int {
	t.Helper()
	var out [][2]int
	r.Each(func(u int, to []int32) bool {
		for _, v := range to {
			out = append(out, [2]int{u, int(v)})
		}
		return true
	})
	if len(out) != r.Len() {
		t.Fatalf("window lists %d pairs, Len says %d", len(out), r.Len())
	}
	return out
}

// checkWindows compares build's full window, ordered, with want — the same
// result under a comparison sort — and a spread of windows with want's
// slices: empty ones, ones past the end, ones inside a single row.
func checkWindows(t *testing.T, r *rand.Rand, name string, want [][2]int, build func(offset, limit int) *Rows) {
	t.Helper()
	full := build(0, -1)
	full.Order()
	if got := pairsOf(t, full); !slices.Equal(got, want) || full.Total() != len(want) {
		t.Fatalf("%s: full result has %d pairs (total %d), want %d (first diff %s)", name, len(got), full.Total(), len(want), firstDiff(got, want))
	}
	n := len(want)
	windows := [][2]int{{0, 0}, {n, 5}, {n + 3, -1}, {n / 2, 0}, {max(n-1, 0), 7}, {n / 3, 1}, {n / 3, 2}}
	for i := 0; i < 8; i++ {
		windows = append(windows, [2]int{r.Intn(n + 2), r.Intn(n+2) - 1})
	}
	for _, w := range windows {
		rows := build(w[0], w[1])
		rows.Order()
		lo := min(w[0], n)
		hi := n
		if w[1] >= 0 {
			hi = min(lo+w[1], n)
		}
		if got := pairsOf(t, rows); !slices.Equal(got, want[lo:hi]) || rows.Total() != n {
			t.Fatalf("%s: window (offset %d, limit %d) has %d pairs of %d, want [%d:%d] of %d", name, w[0], w[1], len(got), rows.Total(), lo, hi, n)
		}
	}
}

// TestRowsMatchTheWalk: for every enumerated specification × safe language,
// on the specification's largest enumerated run, the rows built from the
// walk, from the RPL nested loop, from a pair of prebuilt tries and from the
// relation of the same pairs are, once ordered, the walk's emitted pairs
// under a comparison sort — and every window of them is that slice of the
// list. A list in shuffled order, where
// label order is not index order, is what makes rows arrive unsorted.
func TestRowsMatchTheWalk(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	ctx := context.Background()
	unsorted := 0
	must := func(rows *Rows, err error) *Rows {
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	for _, e := range enumerate(t) {
		run := slices.MaxFunc(e.runs, func(a, b *derive.Run) int { return a.NumNodes() - b.NumNodes() })
		labels := run.MaterializeLabels()
		trie := reach.NewTrie(labels)
		for _, env := range e.safe {
			name := fmt.Sprintf("%s %s", e.name, env.Query)
			var want [][2]int
			wantRel := rel.NewRel()
			if err := env.AllPairsSafeParallel(labels, labels, OptRPL, 1, func(i, j int) {
				want = append(want, [2]int{i, j})
				wantRel.Add(derive.NodeID(i), derive.NodeID(j))
			}); err != nil {
				t.Fatal(err)
			}
			sortIndexPairs(want)
			checkWindows(t, r, name+" optrpl", want, func(offset, limit int) *Rows {
				return must(env.SafeRows(ctx, labels, OptRPL, offset, limit))
			})
			checkWindows(t, r, name+" rpl", want, func(offset, limit int) *Rows {
				return must(env.SafeRows(ctx, labels, RPL, offset, limit))
			})
			checkWindows(t, r, name+" tries", want, func(offset, limit int) *Rows {
				return must(env.RowsSafeTries(ctx, trie, trie, len(labels), offset, limit))
			})
			checkWindows(t, r, name+" relation", want, func(offset, limit int) *Rows {
				return must(RowsOf(ctx, wantRel, len(labels), offset, limit))
			})

			shuffled := slices.Clone(labels)
			r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			want = want[:0]
			if err := env.AllPairsSafeParallel(shuffled, shuffled, RPL, 1, func(i, j int) { want = append(want, [2]int{i, j}) }); err != nil {
				t.Fatal(err)
			}
			must(env.SafeRows(ctx, shuffled, OptRPL, 0, -1)).Each(func(_ int, to []int32) bool {
				if !slices.IsSorted(to) {
					unsorted++
				}
				return true
			})
			checkWindows(t, r, name+" shuffled", want, func(offset, limit int) *Rows {
				return must(env.SafeRows(ctx, shuffled, OptRPL, offset, limit))
			})
		}
	}
	if unsorted == 0 {
		t.Error("no row of a shuffled list arrived unsorted: the sort branch of Order never ran")
	}
}

// TestWalkStopsAtTheNextBlock: on a scan of many blocks — a* over one fork
// chain of 30K iterations, whose Case 2 sweep emits a block at nearly every
// iteration — a done channel closed from the first block's callback ends the
// run before a second block, in under 50 ms; the sink over the same walk
// returns the context's error, and writes no row.
func TestWalkStopsAtTheNextBlock(t *testing.T) {
	spec := wf.ForkSpec()
	run, err := derive.Derive(spec, derive.Options{Seed: 1, TargetEdges: 30000, FavorModule: "M"})
	if err != nil {
		t.Fatal(err)
	}
	env := compile(t, spec, "a*")
	d := env.NewDecoder()
	trie := reach.NewTrie(run.MaterializeLabels())
	w := d.newWalk(trie, trie, d.leafVectors(trie, true), d.leafVectors(trie, false))

	blocks := 0
	if w.run(func(block) { blocks++ }); blocks < 1000 || w.stopped {
		t.Fatalf("an unstopped run emitted %d blocks (stopped %v), want at least 1000", blocks, w.stopped)
	}

	first := make(chan struct{})
	blocks = 0
	w.done = first
	start := time.Now()
	w.run(func(block) {
		if blocks++; blocks == 1 {
			close(first)
		}
	})
	if d := time.Since(start); blocks != 1 || d > 50*time.Millisecond {
		t.Errorf("stopped from the first block: %d blocks emitted in %v, want 1 in under 50ms", blocks, d)
	}

	ctx, cancel := context.WithCancel(context.Background())
	w.done = ctx.Done()
	passes := 0
	rows, err := buildRows(ctx, run.NumNodes(), 0, -1, func(emit func(block)) Work {
		passes++
		return w.run(func(b block) {
			cancel()
			emit(b)
		})
	})
	if !errors.Is(err, context.Canceled) || rows != nil || passes != 1 {
		t.Errorf("cancelled sink returned (%v, %v) after %d passes, want (nil, context.Canceled) after the count pass", rows, err, passes)
	}
}

// TestCountTakesOneWalk: a window that holds no pair — limit 0, or an offset
// at or past the end — is a count. The sink runs the walk once, for the
// count pass, and still reports the whole result's total; a window that
// holds a pair runs it twice, the second time to fill. A relation's count
// (the decomposition's) reads its size and allocates nothing per node.
func TestCountTakesOneWalk(t *testing.T) {
	spec := wf.ForkSpec()
	run, err := derive.Derive(spec, derive.Options{Seed: 1, TargetEdges: 300, FavorModule: "M"})
	if err != nil {
		t.Fatal(err)
	}
	env := compile(t, spec, "a*")
	d := env.NewDecoder()
	trie := reach.NewTrie(run.MaterializeLabels())
	w := d.newWalk(trie, trie, d.leafVectors(trie, true), d.leafVectors(trie, false))
	build := func(offset, limit int) (*Rows, int) {
		t.Helper()
		passes := 0
		rows, err := buildRows(context.Background(), run.NumNodes(), offset, limit, func(emit func(block)) Work {
			passes++
			return w.run(emit)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows, passes
	}
	full, passes := build(0, -1)
	total := full.Total()
	if total == 0 || passes != 2 {
		t.Fatalf("full window: %d pairs in %d passes, want some pairs in 2", total, passes)
	}
	for _, win := range [][2]int{{0, 0}, {total / 2, 0}, {total, -1}, {total + 5, 3}} {
		rows, passes := build(win[0], win[1])
		rows.Order()
		if passes != 1 || rows.Total() != total || len(pairsOf(t, rows)) != 0 {
			t.Errorf("window (offset %d, limit %d): %d passes, total %d, %d pairs; want 1 pass, total %d, no pair",
				win[0], win[1], passes, rows.Total(), rows.Len(), total)
		}
	}
	if rows, passes := build(total/2, 1); passes != 2 || len(pairsOf(t, rows)) != 1 {
		t.Errorf("one-pair window: %d passes, %d pairs; want 2 passes, 1 pair", passes, rows.Len())
	}
	r := rel.NewRel()
	full.Each(func(u int, to []int32) bool {
		for _, v := range to {
			r.Add(derive.NodeID(u), derive.NodeID(v))
		}
		return true
	})
	var count *Rows
	allocs := testing.AllocsPerRun(5, func() { count, _ = RowsOf(context.Background(), r, run.NumNodes(), total/2, 0) })
	if allocs > 1 || count.Total() != total || len(pairsOf(t, count)) != 0 {
		t.Errorf("a relation's count: %v allocations, total %d, %d pairs; want the Rows alone, total %d, no pair", allocs, count.Total(), count.Len(), total)
	}
}

// TestWalkCountHoldsNoIndex: a walk's count (limit 0) sums its blocks' sizes.
// Its total is the full build's, and the bytes it allocates do not grow with
// the run: no offset per node is kept for a window that holds no pair.
func TestWalkCountHoldsNoIndex(t *testing.T) {
	spec := wf.ForkSpec()
	env := compile(t, spec, "a*")
	bytesOfCount := func(edges int) uint64 {
		t.Helper()
		run, err := derive.Derive(spec, derive.Options{Seed: 1, TargetEdges: edges, FavorModule: "M"})
		if err != nil {
			t.Fatal(err)
		}
		d := env.NewDecoder()
		trie := reach.NewTrie(run.MaterializeLabels())
		w := d.newWalk(trie, trie, d.leafVectors(trie, true), d.leafVectors(trie, false))
		build := func(limit int) *Rows {
			rows, err := buildRows(context.Background(), run.NumNodes(), 0, limit, w.run)
			if err != nil {
				t.Fatal(err)
			}
			return rows
		}
		if full, count := build(-1), build(0); count.Total() != full.Total() || full.Total() == 0 || count.Len() != 0 {
			t.Fatalf("%d edges: the count says %d pairs (%d in its window), the full build %d", edges, count.Total(), count.Len(), full.Total())
		}
		// As testing.AllocsPerRun, but for bytes: one P, warm scratch.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			build(0)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := bytesOfCount(300), bytesOfCount(1200)
	if large > small {
		t.Errorf("a count allocates %d B on the larger run, %d B on the smaller: it grows with the run", large, small)
	}
	t.Logf("bytes per count: %d and %d", small, large)
}
