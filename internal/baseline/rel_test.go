package baseline

import (
	"math/rand"
	"slices"
	"testing"

	"provrpq/internal/derive"
	"provrpq/internal/rel"
	"provrpq/internal/wf"
)

// relModel is the reference the property test holds rel.Rel against: a plain
// set of pairs, with every operator written the obvious way.
type relModel map[[2]derive.NodeID]bool

func (m relModel) union(o relModel) relModel {
	out := relModel{}
	for p := range m {
		out[p] = true
	}
	for p := range o {
		out[p] = true
	}
	return out
}

func (m relModel) join(o relModel) relModel {
	out := relModel{}
	for p := range m {
		for q := range o {
			if p[1] == q[0] {
				out[[2]derive.NodeID{p[0], q[1]}] = true
			}
		}
	}
	return out
}

func (m relModel) closure() relModel {
	out := m.union(nil)
	for {
		next := out.union(out.join(m))
		if len(next) == len(out) {
			return out
		}
		out = next
	}
}

func (m relModel) sorted() [][2]derive.NodeID {
	out := make([][2]derive.NodeID, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b [2]derive.NodeID) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	return out
}

// checkRel holds every read of r against the model: Len, Pairs in strictly
// increasing (From, To) order, Each visiting exactly Pairs, and Has over the
// whole id square, including sources and targets r never saw.
func checkRel(t *testing.T, what string, r *rel.Rel, m relModel) {
	t.Helper()
	want := m.sorted()
	if r.Len() != len(want) {
		t.Fatalf("%s: Len %d, model %d", what, r.Len(), len(want))
	}
	got := r.Pairs()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Pairs %v, model %v", what, got, want)
	}
	var each [][2]derive.NodeID
	r.Each(func(u, v derive.NodeID) { each = append(each, [2]derive.NodeID{u, v}) })
	if !slices.Equal(each, want) {
		t.Fatalf("%s: Each visited %v, model %v", what, each, want)
	}
	for u := derive.NodeID(0); u < relTestIDs+2; u++ {
		for v := derive.NodeID(0); v < relTestIDs+2; v++ {
			if r.Has(u, v) != m[[2]derive.NodeID{u, v}] {
				t.Fatalf("%s: Has(%d,%d) = %v, model says otherwise", what, u, v, r.Has(u, v))
			}
		}
	}
}

const relTestIDs = 40

// randomRel builds a relation and its model side by side: a random share of
// the pairs through Add — sources out of order and far past the current row
// count, self-loops, the same pair twice — the rest through AddRows, as
// unsorted rows with repeats laid over what Add put there.
func randomRel(rng *rand.Rand) (*rel.Rel, relModel) {
	r, m := rel.NewRel(), relModel{}
	ids := 1 + rng.Intn(relTestIDs)
	pairs := 0
	if rng.Intn(6) > 0 { // one relation in six stays empty
		pairs = rng.Intn(3 * ids)
	}
	id := func() derive.NodeID { return derive.NodeID(rng.Intn(ids)) }
	for i := 0; i < pairs; i++ {
		u, v := id(), id()
		if rng.Intn(8) == 0 {
			v = u
		}
		r.Add(u, v)
		m[[2]derive.NodeID{u, v}] = true
		if rng.Intn(5) == 0 {
			r.Add(u, v)
		}
	}
	if rng.Intn(2) == 0 {
		rows := make([][]int32, rng.Intn(ids+1))
		for u := range rows {
			for k := rng.Intn(4); k > 0; k-- {
				v := id()
				rows[u] = append(rows[u], int32(v), int32(v))
				m[[2]derive.NodeID{derive.NodeID(u), v}] = true
			}
			rng.Shuffle(len(rows[u]), func(i, j int) { rows[u][i], rows[u][j] = rows[u][j], rows[u][i] })
		}
		r.AddRows(rows)
	}
	return r, m
}

// TestRelMatchesModel is the model-based property test of the row container:
// every read and every operator equals the set-of-pairs model, operands are
// unchanged by every operator, and a result shares no storage with its
// operands — an Add to either never shows in the other.
func TestRelMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for round := 0; round < 300; round++ {
		a, ma := randomRel(rng)
		b, mb := randomRel(rng)
		checkRel(t, "a", a, ma)
		checkRel(t, "b", b, mb)

		results := []struct {
			name string
			rel  *rel.Rel
			m    relModel
		}{
			{"Union", a.Union(b), ma.union(mb)},
			{"Union with itself", a.Union(a), ma},
			{"Union with empty", a.Union(rel.NewRel()), ma},
			{"empty Union", rel.NewRel().Union(a), ma},
			{"Join", a.Join(b), ma.join(mb)},
			{"Join with itself", a.Join(a), ma.join(ma)},
			{"Closure", a.Closure(), ma.closure()},
			{"ClosureNaive", a.ClosureNaive(), ma.closure()},
		}
		for _, res := range results {
			checkRel(t, res.name, res.rel, res.m)
		}
		checkRel(t, "a after the operators", a, ma)
		checkRel(t, "b after the operators", b, mb)

		// A pair no relation here can hold, added to each result and then to
		// the operands: it must show exactly where it was added.
		fresh := [2]derive.NodeID{relTestIDs + 1, relTestIDs}
		for _, res := range results {
			res.rel.Add(fresh[0], fresh[1])
			// ... and one into an existing row, below its last target.
			res.rel.Add(0, relTestIDs+1)
			res.rel.Add(0, relTestIDs)
			m := res.m.union(relModel{fresh: true, {0, relTestIDs + 1}: true, {0, relTestIDs}: true})
			checkRel(t, res.name+" after Add", res.rel, m)
		}
		checkRel(t, "a after Adds to the results", a, ma)
		checkRel(t, "b after Adds to the results", b, mb)
		a.Add(0, relTestIDs-1)
		a.Add(fresh[1], fresh[0])
		for _, res := range results {
			if res.rel.Has(fresh[1], fresh[0]) {
				t.Fatalf("%s: an Add to its operand shows in the result", res.name)
			}
		}
	}
}

func TestIdentityRelMatchesModel(t *testing.T) {
	run := testRun(t, wf.PaperSpec(), 1, 30)
	m := relModel{}
	for _, u := range run.AllNodes() {
		m[[2]derive.NodeID{u, u}] = true
	}
	id := rel.Identity(run)
	if run.NumNodes() > relTestIDs {
		t.Fatalf("fixture has %d nodes, checkRel covers %d", run.NumNodes(), relTestIDs)
	}
	checkRel(t, "IdentityRel", id, m)
	id.Add(0, 1) // grows row 0 without touching row 1's storage
	m[[2]derive.NodeID{0, 1}] = true
	checkRel(t, "IdentityRel after Add", id, m)
}

// TestAllPairsInOrder pins the restriction's contract on lists with
// duplicate and out-of-order entries: exactly the nested loop's positions,
// in the nested loop's order.
func TestAllPairsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		r, _ := randomRel(rng)
		list := func() []derive.NodeID {
			out := make([]derive.NodeID, rng.Intn(30))
			for i := range out {
				out[i] = derive.NodeID(rng.Intn(relTestIDs + 2))
			}
			return out
		}
		l1, l2 := list(), list()
		var got, want [][2]int
		rel.AllPairsIn(r, l1, l2, func(i, j int) { got = append(got, [2]int{i, j}) })
		for i, u := range l1 {
			for j, v := range l2 {
				if r.Has(u, v) {
					want = append(want, [2]int{i, j})
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("l1 %v l2 %v: got %v, nested loop %v", l1, l2, got, want)
		}
	}
}

// TestRelSetsAndRestriction holds Sources, Targets, Restrict and ClosureFrom
// against the model on random relations and random node sets, the empty one
// and nil — every node — included.
func TestRelSetsAndRestriction(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	set := func() []int32 {
		if rng.Intn(4) == 0 {
			return nil
		}
		s := []int32{}
		for v := int32(0); v < relTestIDs+2; v++ {
			if rng.Intn(3) == 0 {
				s = append(s, v)
			}
		}
		return s[:rng.Intn(len(s)+1)]
	}
	has := func(s []int32, v derive.NodeID) bool { return s == nil || slices.Contains(s, int32(v)) }
	for round := 0; round < 300; round++ {
		r, m := randomRel(rng)
		var sources, targets []int32
		for p := range m {
			sources, targets = append(sources, int32(p[0])), append(targets, int32(p[1]))
		}
		for _, s := range []*[]int32{&sources, &targets} {
			slices.Sort(*s)
			*s = slices.Compact(*s)
		}
		if got := r.Sources(); got == nil || !slices.Equal(got, sources) {
			t.Fatalf("Sources() = %v, model %v", got, sources)
		}
		if got := r.Targets(); got == nil || !slices.Equal(got, targets) {
			t.Fatalf("Targets() = %v, model %v", got, targets)
		}
		from, to := set(), set()
		closed, restricted := relModel{}, relModel{}
		for p := range m.closure() {
			if has(from, p[0]) {
				closed[p] = true
			}
		}
		for p := range m {
			if has(from, p[0]) && has(to, p[1]) {
				restricted[p] = true
			}
		}
		checkRel(t, "ClosureFrom", r.ClosureFrom(nil, from), closed)
		checkRel(t, "the operand of ClosureFrom", r, m)
		if got := r.Restrict(from, to); got != r {
			t.Fatal("Restrict returned another relation")
		}
		checkRel(t, "Restrict", r, restricted)
	}
}

// TestRelOperatorsGiveUp: once done has fired an operator stops at its next
// block of source rows — before the first, when it had fired already — and
// what it returns is a relation still, whatever it lacks.
func TestRelOperatorsGiveUp(t *testing.T) {
	r := rel.NewRel()
	for u := derive.NodeID(0); u < 500; u++ {
		r.Add(u, u+1)
	}
	done := make(chan struct{})
	close(done)
	for name, got := range map[string]*rel.Rel{
		"JoinUntil":   r.JoinUntil(done, r),
		"UnionUntil":  r.UnionUntil(done, rel.NewRel()),
		"ClosureFrom": r.ClosureFrom(done, nil),
	} {
		if got.Len() != 0 {
			t.Errorf("%s after done fired: %d pairs, want it to stop before its first row", name, got.Len())
		}
		checkRel(t, name, got, relModel{})
	}
	if r.JoinUntil(nil, r).Len() != 499 || r.ClosureFrom(nil, nil).Len() != 500*501/2 {
		t.Error("a nil done channel stopped an operator")
	}
}
