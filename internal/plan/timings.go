package plan

import "provrpq/internal/index"

// Timings, SharedTimings and NewWithTimings are inert: plans come from
// the run's statistics alone. They are kept only because the benchmark
// module still compiles against them (ROADMAP item 1a deletes them).
type Timings struct{}

// SharedTimings returns an inert Timings.
func SharedTimings() *Timings { return &Timings{} }

// Reset does nothing.
func (*Timings) Reset() {}

// NewWithTimings returns New(ix).
func NewWithTimings(ix *index.Index, _ *Timings) *Planner { return New(ix) }
