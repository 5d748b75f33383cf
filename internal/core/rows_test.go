package core

import (
	"context"
	"errors"
	"maps"
	"math/rand"
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

// TestRowsMatchTheWalk: for every test specification × safe query, the rows
// built from the walk, from the RPL nested loop, from a pair of prebuilt
// tries and from the relation of the same pairs are, once ordered, the walk's
// emitted pairs under a comparison sort — and every window of them is that
// slice of the list. A list in shuffled order, where label order is not index
// order, is what makes rows arrive unsorted.
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
	for name, suite := range specsAndQueries() {
		run, err := derive.Derive(suite.spec, derive.Options{Seed: 5, TargetEdges: 120})
		if err != nil {
			t.Fatal(err)
		}
		labels := run.MaterializeLabels()
		envs := walkQueries(t, suite.spec, suite.queries, r)
		for i, q := range slices.Sorted(maps.Keys(envs)) {
			if i%3 != 0 {
				continue // a third of the walk test's queries is plenty here
			}
			env := envs[q]
			var want [][2]int
			wantRel := rel.NewRel()
			if err := env.AllPairsSafeParallel(labels, labels, OptRPL, 1, func(i, j int) {
				want = append(want, [2]int{i, j})
				wantRel.Add(derive.NodeID(i), derive.NodeID(j))
			}); err != nil {
				t.Fatal(err)
			}
			sortIndexPairs(want)
			checkWindows(t, r, name+" "+q+" optrpl", want, func(offset, limit int) *Rows {
				return must(env.SafeRows(ctx, labels, OptRPL, offset, limit))
			})
			checkWindows(t, r, name+" "+q+" rpl", want, func(offset, limit int) *Rows {
				return must(env.SafeRows(ctx, labels, RPL, offset, limit))
			})
			trie := reach.NewTrie(labels)
			checkWindows(t, r, name+" "+q+" tries", want, func(offset, limit int) *Rows {
				return must(env.RowsSafeTries(ctx, trie, trie, len(labels), offset, limit))
			})
			checkWindows(t, r, name+" "+q+" relation", want, func(offset, limit int) *Rows {
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
			checkWindows(t, r, name+" "+q+" shuffled", want, func(offset, limit int) *Rows {
				return must(env.SafeRows(ctx, shuffled, OptRPL, offset, limit))
			})
		}
	}
	if unsorted == 0 {
		t.Error("no row of a shuffled list arrived unsorted: the sort branch of Order never ran")
	}
}

// TestWalkStopsAtTheNextBlock: on a scan that runs for more than a second —
// a* over one fork chain of 30K iterations, whose walk pairs every iteration
// with every later one — a done channel closed from the first block's
// callback ends the run before a second block, in under 50 ms; the sink over
// the same walk returns the context's error, and writes no row.
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

	timer := make(chan struct{})
	time.AfterFunc(time.Second, func() { close(timer) })
	w.done = timer
	if w.run(func(block) {}); !w.stopped {
		t.Skip("the scan finished within a second: too fast here to tell a stop from an end")
	}

	first := make(chan struct{})
	blocks := 0
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
	rows, err := buildRows(ctx, run.NumNodes(), 0, -1, func(emit func(block)) {
		passes++
		w.run(func(b block) {
			cancel()
			emit(b)
		})
	})
	if !errors.Is(err, context.Canceled) || rows != nil || passes != 1 {
		t.Errorf("cancelled sink returned (%v, %v) after %d passes, want (nil, context.Canceled) after the count pass", rows, err, passes)
	}
}
