// Package plan implements the selectivity-driven query planner: per-run tag
// statistics from the inverted index (occurrence counts, distinct-endpoint
// counts, run size) feed a cost model that chooses, per safe all-pairs
// query, among
//
//   - RPL (nested-loop decode of every pair, paper Option S1),
//   - OptRPL (the tree walk over the query-intersected grammar, Option S2),
//     and
//   - Seeded (this package's index-seeded strategy: every match traverses
//     every required tag, so walks of the run from each such tag's
//     occurrences bound the endpoints — the smallest set found wins a race
//     between them — and only the candidates' labels are decoded and
//     verified: by the OptRPL walk for safe queries, or by expanding
//     through the minimal DFA, forward or reversed, for unsafe ones).
//
// The paper's evaluation (Section V) shows the winner is workload-dependent:
// OptRPL dominates when answers are sparse relative to reachability, while
// rare-label seeding wins when one query tag is highly selective. The
// planner makes that choice from statistics instead of a fixed default.
//
// A Planner is bound to one run (one Index) and is safe for concurrent
// use. Its statistics are sampled once per run version — engines rebuilt
// after a growth batch get a fresh planner, so decisions track the run's
// current shape — while the per-query inputs (the required-symbol set)
// are memoized on the compiled plan itself and shared across runs.
package plan

import (
	"math/rand"
	"sync"

	"provrpq/internal/core"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/reach"
)

// Strategy enumerates the planner's choices for a safe all-pairs scan.
type Strategy int

const (
	// RPL decodes every pair of l1 × l2 (Option S1).
	RPL Strategy = iota
	// OptRPL walks the two lists' label tries once, carrying DFA state
	// vectors (Option S2 over the query-intersected grammar).
	OptRPL
	// Seeded anchors on the rarest required tag's occurrence list.
	Seeded
)

// String returns the strategy's wire name.
func (s Strategy) String() string {
	switch s {
	case RPL:
		return "rpl"
	case OptRPL:
		return "optrpl"
	case Seeded:
		return "seeded"
	}
	return "unknown"
}

// Decision is one plan: the chosen strategy, the seed the seeded strategy
// would anchor on, and the cost estimates (in label-decode units) that led
// to the choice.
type Decision struct {
	// Strategy is the cheapest estimate.
	Strategy Strategy
	// SeedTag is the rarest required tag ("" when the query requires no
	// tag, in which case Seeded was not a candidate).
	SeedTag string
	// SeedCount is SeedTag's occurrence count in the run (0 both for an
	// absent tag — the query then matches nothing in this run — and when
	// SeedTag is "").
	SeedCount int
	// Reverse estimates, from distinct-endpoint counts, that the seed's
	// target side is more selective than its source side; Explain reports
	// it. Execution does not follow it: the seeded scan walks from every
	// required tag, and expands from the candidate side found smaller.
	Reverse bool
	// CostRPL, CostOptRPL and CostSeeded are the model's estimates in
	// decode units; CostSeeded is +Inf-free but only meaningful when
	// SeedTag != "".
	CostRPL, CostOptRPL, CostSeeded float64
}

// densitySamples is the size of the deterministic reachability sample
// behind ReachDensity.
const densitySamples = 1024

// Planner owns the per-run statistics and the cost model.
type Planner struct {
	ix *index.Index

	densityOnce sync.Once
	density     float64
}

// New returns a planner over the run the index was built from. Its
// decisions depend only on the run's statistics and the query, so they
// are fully deterministic.
func New(ix *index.Index) *Planner { return &Planner{ix: ix} }

// ReachDensity estimates P(u ⇝ v) for a uniform random ordered node pair by
// a fixed-seed sample of constant-time label decodes (so the estimate — and
// every plan built on it — is deterministic for a given run). An empty run
// reports 0.
func (p *Planner) ReachDensity() float64 {
	p.densityOnce.Do(func() {
		run := p.ix.Run()
		n := run.NumNodes()
		if n == 0 {
			return
		}
		rng := rand.New(rand.NewSource(1))
		hits := 0
		for i := 0; i < densitySamples; i++ {
			u := run.LabelBytes(derive.NodeID(rng.Intn(n)))
			v := run.LabelBytes(derive.NodeID(rng.Intn(n)))
			if reach.PairwiseBytes(run.Spec, u, v) {
				hits++
			}
		}
		p.density = float64(hits) / densitySamples
	})
	return p.density
}

// Plan chooses a strategy for an all-pairs scan of the compiled query over
// endpoint lists of the given sizes. The model counts decode units:
//
//	RPL     n1·n2                                  one decode per pair
//	OptRPL  n1 + n2 + ρ·n1·n2                      trie build + the reachable
//	                                               pairs bounding its output
//	Seeded  (n1 + n2 + ds + dt)                    candidate trie joins
//	        + ρ·(n1·ds + n2·dt)                    join outputs
//	        + estL·estR                            surviving candidate pairs
//
// where ρ is the sampled reachability density, ds/dt the seed tag's
// distinct source/target counts, and estL = n1·min(1, ρ·ds) (resp. estR)
// estimates the candidate set sizes — the probability a random endpoint
// reaches one of ds seed sources is ≈ min(1, ρ·ds). Every term degrades
// gracefully: an empty run, an empty list or an absent seed tag yields
// zero estimates, never a division.
//
// Only RPL's unit is a literal decode. The OptRPL walk and the seeded
// verification do a few vector steps per label plus one per emitted pair,
// so their formulae are rank-only estimates: the decision compares the
// unit counts directly and picks the smallest.
func (p *Planner) Plan(env *core.Env, n1, n2 int) Decision {
	f1, f2 := float64(n1), float64(n2)
	rho := p.ReachDensity()
	d := Decision{
		Strategy:   OptRPL,
		CostRPL:    f1 * f2,
		CostOptRPL: f1 + f2 + rho*f1*f2,
	}
	best := d.CostOptRPL

	seed, count := "", -1
	for _, sym := range env.RequiredSyms() {
		if c := p.ix.Count(sym); count < 0 || c < count {
			seed, count = sym, c
		}
	}
	if seed != "" {
		de := p.ix.DistinctEndpoints(seed)
		ds, dt := float64(de.Sources), float64(de.Targets)
		estL := f1 * minf(1, rho*ds)
		estR := f2 * minf(1, rho*dt)
		d.SeedTag, d.SeedCount = seed, count
		d.Reverse = de.Targets < de.Sources
		d.CostSeeded = (f1 + f2 + ds + dt) + rho*(f1*ds+f2*dt) + estL*estR
		if d.CostSeeded < best {
			d.Strategy, best = Seeded, d.CostSeeded
		}
	}
	if d.CostRPL < best {
		d.Strategy = RPL
	}
	return d
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
