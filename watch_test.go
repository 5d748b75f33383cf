package provrpq

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// watchPairSet builds a set view of a pair list for union/equality checks.
func watchPairSet(pairs []Pair) map[Pair]bool {
	m := make(map[Pair]bool, len(pairs))
	for _, p := range pairs {
		m[p] = true
	}
	return m
}

// TestStandingQueryDeltaEqualsFullEvaluation is the differential property
// behind /v1/watch: for randomized base graphs and randomized growth
// batches, a snapshot taken at registration plus the DeltaPairs of every
// subsequent append event must equal a full re-evaluation of the final run
// — for every safe query, with no pair missing, duplicated across deltas,
// or retracted.
func TestStandingQueryDeltaEqualsFullEvaluation(t *testing.T) {
	spec := introSpec(t)
	safeTested := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		full, err := spec.Derive(DeriveOptions{Seed: seed, TargetEdges: 80 + rng.Intn(160)})
		if err != nil {
			t.Fatal(err)
		}
		fullJSON, err := EncodeRun(full)
		if err != nil {
			t.Fatal(err)
		}
		n := full.NumNodes()
		cuts := []int{1 + rng.Intn(n/2+1)}
		for cuts[len(cuts)-1] < n {
			next := cuts[len(cuts)-1] + 1 + rng.Intn(n/4+1)
			if next > n {
				next = n
			}
			cuts = append(cuts, next)
		}
		baseJSON, batchJSONs := splitEncodedRun(t, fullJSON, cuts)

		cat := NewCatalog(CatalogOptions{})
		if err := cat.RegisterSpec("wf", spec); err != nil {
			t.Fatal(err)
		}
		base, err := DecodeRun(spec, baseJSON)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddRun("r1", "wf", base); err != nil {
			t.Fatal(err)
		}

		var events []AppendEvent
		cancel := cat.SubscribeAppends(func(ev AppendEvent) { events = append(events, ev) })
		snapEngine, snapVer, ok := cat.EngineAt("r1")
		if !ok || snapVer != 0 {
			t.Fatalf("EngineAt = (%v, %d, %v)", snapEngine, snapVer, ok)
		}

		for bi, bj := range batchJSONs {
			b, err := DecodeBatch(spec, bj)
			if err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, bi, err)
			}
			if _, err := cat.AppendEdges("r1", b); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, bi, err)
			}
		}
		cancel()
		if len(events) != len(batchJSONs) {
			t.Fatalf("seed %d: %d events for %d batches", seed, len(events), len(batchJSONs))
		}
		for i, ev := range events {
			if ev.RunName != "r1" || ev.Version != i+1 {
				t.Fatalf("seed %d event %d: name %q version %d", seed, i, ev.RunName, ev.Version)
			}
			if i > 0 && int(ev.FirstNewNode) != events[i-1].Run.NumNodes() {
				t.Fatalf("seed %d event %d: FirstNewNode %d, prev run had %d nodes",
					seed, i, ev.FirstNewNode, events[i-1].Run.NumNodes())
			}
		}

		finalEngine, err := cat.Engine("r1")
		if err != nil {
			t.Fatal(err)
		}
		for _, qs := range appendQueries {
			q := MustParseQuery(qs)
			safe, err := cat.IsSafeQuery(spec, q)
			if err != nil {
				t.Fatal(err)
			}
			if !safe {
				for _, ev := range events {
					if _, err := cat.DeltaPairs(ev, q); !errors.Is(err, ErrUnsafeWatch) {
						t.Fatalf("DeltaPairs(unsafe %s) = %v, want ErrUnsafeWatch", qs, err)
					}
				}
				continue
			}
			safeTested++
			snap, err := snapEngine.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			union := watchPairSet(snap)
			for i, ev := range events {
				delta, err := cat.DeltaPairs(ev, q)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range delta {
					if union[p] {
						t.Fatalf("seed %d query %s: pair %v duplicated by delta %d", seed, qs, p, i)
					}
					union[p] = true
				}
			}
			want, err := finalEngine.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			wantSet := watchPairSet(want)
			if len(union) != len(wantSet) {
				t.Fatalf("seed %d query %s: snapshot+deltas has %d pairs, full evaluation %d",
					seed, qs, len(union), len(wantSet))
			}
			for p := range wantSet {
				if !union[p] {
					t.Fatalf("seed %d query %s: pair %v missing from snapshot+deltas", seed, qs, p)
				}
			}
		}
	}
	if safeTested == 0 {
		t.Fatal("no safe query exercised; fixture queries all unsafe")
	}
}

// TestDeltaPairsEdgesOnlyBatchIsEmpty: a batch creating no nodes cannot
// change any safe-query answer (labels are assigned at node creation and
// never recomputed), so its delta must be empty and its pairs sorted.
func TestDeltaPairsEdgesOnlyBatchIsEmpty(t *testing.T) {
	spec := introSpec(t)
	full, err := spec.Derive(DeriveOptions{Seed: 3, TargetEdges: 200})
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(CatalogOptions{})
	if err := cat.RegisterSpec("wf", spec); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r1", "wf", full); err != nil {
		t.Fatal(err)
	}
	var got []AppendEvent
	cancel := cat.SubscribeAppends(func(ev AppendEvent) { got = append(got, ev) })
	defer cancel()
	b := appendEdgesBatch(t, spec, full, 8)
	if _, err := cat.AppendEdges("r1", b); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].NewNodes != 0 || got[0].NewEdges != 8 {
		t.Fatalf("events = %+v, want one edges-only event", got)
	}
	for _, qs := range appendQueries {
		q := MustParseQuery(qs)
		if safe, _ := cat.IsSafeQuery(spec, q); !safe {
			continue
		}
		delta, err := cat.DeltaPairs(got[0], q)
		if err != nil {
			t.Fatal(err)
		}
		if len(delta) != 0 {
			t.Fatalf("query %s: edges-only batch produced %d delta pairs", qs, len(delta))
		}
	}
}

// TestDeltaPairsSorted: DeltaPairs promises (From, To)-sorted output — the
// SSE layer streams it verbatim.
func TestDeltaPairsSorted(t *testing.T) {
	spec := introSpec(t)
	full, err := spec.Derive(DeriveOptions{Seed: 7, TargetEdges: 300})
	if err != nil {
		t.Fatal(err)
	}
	fullJSON, err := EncodeRun(full)
	if err != nil {
		t.Fatal(err)
	}
	n := full.NumNodes()
	baseJSON, batchJSONs := splitEncodedRun(t, fullJSON, []int{n / 2, n})
	cat := NewCatalog(CatalogOptions{})
	if err := cat.RegisterSpec("wf", spec); err != nil {
		t.Fatal(err)
	}
	base, err := DecodeRun(spec, baseJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r1", "wf", base); err != nil {
		t.Fatal(err)
	}
	var ev AppendEvent
	cancel := cat.SubscribeAppends(func(e AppendEvent) { ev = e })
	defer cancel()
	b, err := DecodeBatch(spec, batchJSONs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AppendEdges("r1", b); err != nil {
		t.Fatal(err)
	}
	checked := false
	for _, qs := range appendQueries {
		q := MustParseQuery(qs)
		if safe, _ := cat.IsSafeQuery(spec, q); !safe {
			continue
		}
		delta, err := cat.DeltaPairs(ev, q)
		if err != nil {
			t.Fatal(err)
		}
		if !sort.SliceIsSorted(delta, func(i, j int) bool {
			if delta[i].From != delta[j].From {
				return delta[i].From < delta[j].From
			}
			return delta[i].To < delta[j].To
		}) {
			t.Fatalf("query %s: delta not sorted: %v", qs, delta)
		}
		if len(delta) > 0 {
			checked = true
		}
	}
	if !checked {
		t.Skip("no safe query produced a non-empty delta for this fixture")
	}
}

// TestStandingQueryRebuildsAndStaysExact: a StandingQuery answers from
// retained state only for the direct successor of the last event it saw. A
// skipped and a repeated event each force a rebuild, and so do the events
// after a CompactRun and, with a fresh evaluator, after a durable reopen — a
// run whose labels are decoded from the column, Node.Label nil — answer
// exactly: every delta is the full evaluation's pairs with a batch endpoint.
func TestStandingQueryRebuildsAndStaysExact(t *testing.T) {
	for _, qs := range []string{"_*", "_*.s._*.publish"} {
		t.Run(qs, func(t *testing.T) { standingQueryRebuilds(t, MustParseQuery(qs)) })
	}
}

func standingQueryRebuilds(t *testing.T, q *Query) {
	spec := introSpec(t)
	full, err := spec.Derive(DeriveOptions{Seed: 11, TargetEdges: 400})
	if err != nil {
		t.Fatal(err)
	}
	fullJSON, err := EncodeRun(full)
	if err != nil {
		t.Fatal(err)
	}
	n := full.NumNodes()
	cuts := []int{n / 2}
	for c := n/2 + 5; c < n; c += 5 {
		cuts = append(cuts, c)
	}
	baseJSON, batchJSONs := splitEncodedRun(t, fullJSON, append(cuts, n))
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(CatalogOptions{Store: st})
	if err := cat.RegisterSpec("wf", spec); err != nil {
		t.Fatal(err)
	}
	base, err := DecodeRun(spec, baseJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r1", "wf", base); err != nil {
		t.Fatal(err)
	}
	var sq *StandingQuery
	// step appends the next batch and checks the delta of its event; deliver
	// says whether sq sees the event at all.
	step := func(i int, deliver bool, wantRebuild bool, why string) AppendEvent {
		t.Helper()
		var ev AppendEvent
		cancel := cat.SubscribeAppends(func(e AppendEvent) { ev = e })
		defer cancel()
		s, _ := cat.Spec("wf")
		b, err := DecodeBatch(s, batchJSONs[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cat.AppendEdges("r1", b); err != nil {
			t.Fatal(err)
		}
		if deliver {
			checkStandingDelta(t, sq, ev, q, wantRebuild, why)
		}
		return ev
	}
	sq = cat.NewStandingQuery(q)
	step(0, true, true, "the first event")
	ev1 := step(1, true, false, "a direct successor")
	step(2, false, false, "")
	step(3, true, true, "the event after a skipped one")
	step(4, true, false, "a direct successor")
	checkStandingDelta(t, sq, ev1, q, true, "a repeated event")
	step(5, true, true, "the event after a repeated one")
	if _, err := cat.CompactRun("r1"); err != nil {
		t.Fatal(err)
	}
	// Compaction rewrites how the version is stored, not the version: the
	// sequence continues and the retained state stays good.
	step(6, true, false, "a direct successor after a compaction")

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cat, err = NewCatalogFromStore(st2, CatalogOptions{}); err != nil {
		t.Fatal(err)
	}
	sq = cat.NewStandingQuery(q)
	ev := step(7, true, true, "the first event after a reopen")
	if ev.Run.r.Nodes[0].Label != nil {
		t.Fatal("fixture: the reopened run carries materialized labels")
	}
	step(8, true, false, "a direct successor after a reopen")
}

// checkStandingDelta checks one StandingQuery.Delta against the full
// evaluation of the event's run, and whether it rebuilt.
func checkStandingDelta(t *testing.T, sq *StandingQuery, ev AppendEvent, q *Query, wantRebuild bool, why string) {
	t.Helper()
	before := sq.Rebuilds()
	got, err := sq.Delta(ev)
	if err != nil {
		t.Fatalf("%s: %v", why, err)
	}
	if rebuilt := sq.Rebuilds() != before; rebuilt != wantRebuild {
		t.Fatalf("%s: rebuilt = %v, want %v", why, rebuilt, wantRebuild)
	}
	all, err := NewEngine(ev.Run).Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	var want []Pair
	for _, p := range all {
		if hi := ev.FirstNewNode + NodeID(ev.NewNodes); (p.From >= ev.FirstNewNode || p.To >= ev.FirstNewNode) && p.From < hi && p.To < hi {
			want = append(want, p)
		}
	}
	if err := samePairs(got, want); err != nil || (len(want) == 0 && q.String() == "_*") {
		t.Fatalf("%s: delta of version %d vs the full evaluation's %d batch pairs: %v", why, ev.Version, len(want), err)
	}
}
