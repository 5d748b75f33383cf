// Package metrics is a dependency-free instrumentation layer: counters,
// gauges and fixed-bucket histograms with lock-free atomic hot paths, a
// registry that renders them in the Prometheus text exposition format
// (served by rpqd's GET /metrics), and a structured snapshot API over the
// same instruments for in-process readers (tests, the benchmark harness).
//
// Instruments are registered get-or-create: asking a registry twice for
// the same name returns the same instrument, so independently-initialized
// layers (server, engine, store) share families without coordination.
// Registration takes a lock; observation is wait-free for counters and
// a bounded CAS loop for float accumulation, so instrumenting the
// evaluate hot path costs nanoseconds, not contention.
//
// The exposition writer emits families sorted by name and samples sorted
// by label values, so output is deterministic — golden-testable — and
// histograms follow the Prometheus contract: cumulative `_bucket` series
// with inclusive `le` upper bounds and a trailing `+Inf`, plus `_sum`
// and `_count`.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the exposition TYPE of a metric family.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// ---- instruments ----

// Counter is a monotonically increasing value. The zero value is ready to
// use, but counters are normally created through a Registry so they are
// exposed.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; deltas from concurrent writers all land).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Buckets are defined
// by their inclusive upper bounds (Prometheus `le` semantics: an
// observation equal to a bound lands in that bound's bucket); a final
// +Inf bucket is implicit. Observation is one atomic add plus a CAS loop
// for the running sum.
type Histogram struct {
	bounds []float64       // sorted inclusive upper bounds, +Inf excluded
	counts []atomic.Uint64 // len(bounds)+1; counts[len(bounds)] is +Inf
	sum    Gauge           // running sum of observed values
}

// newHistogram validates and copies the bounds.
func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	for i := 1; i < len(bs); i++ {
		if bs[i] == bs[i-1] {
			panic(fmt.Sprintf("metrics: duplicate histogram bound %g", bs[i]))
		}
	}
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound >= v: inclusive `le` bucketing. NaN lands in +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts are per-bucket (non-cumulative), aligned with Bounds; the last
// entry of Counts is the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram's counters. Buckets are read one atomic
// load at a time, so a snapshot taken under concurrent observation is a
// consistent-enough view: every completed observation before the snapshot
// is included in its bucket, and Count is the sum of the buckets read.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Value()
	return s
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the snapshot's
// buckets by linear interpolation within the bucket holding the target
// rank — the same estimate Prometheus's histogram_quantile computes. An
// empty histogram reports 0; a target landing in the +Inf bucket reports
// the largest finite bound (the histogram cannot resolve beyond it).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(s.Bounds) { // +Inf bucket
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		return lo + (s.Bounds[i]-lo)*(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// ---- vectors ----

// labelKey joins label values into one map key. Values are escaped so
// ("a,b") and ("a","b") cannot collide.
func labelKey(values []string) string {
	var b strings.Builder
	for i, v := range values {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(v))
	}
	return b.String()
}

// child is one labeled instrument inside a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// family is one named metric family: a fixed Kind and label schema, and
// one instrument per distinct label-value tuple (exactly one, with no
// labels, for plain instruments).
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histograms only

	//provrpq:lockrank metricsFamilyMu 90
	mu       sync.RWMutex
	children map[string]*child

	// fn, when set, makes this a callback family: the value is computed
	// at exposition time (uptime, registry sizes, wedged state). Callback
	// families have exactly one unlabeled sample.
	fn func() float64
}

func (f *family) get(values []string) *child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %s expects %d label value(s), got %d", f.name, len(f.labelNames), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.children[key]; c != nil {
		return c
	}
	c = &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		c.counter = &Counter{}
	case KindGauge:
		c.gauge = &Gauge{}
	case KindHistogram:
		c.hist = newHistogram(f.buckets)
	}
	f.children[key] = c
	return c
}

// CounterVec is a family of counters partitioned by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use. Callers on hot paths should cache the returned handle.
func (v *CounterVec) With(labelValues ...string) *Counter { return v.f.get(labelValues).counter }

// GaugeVec is a family of gauges partitioned by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge { return v.f.get(labelValues).gauge }

// HistogramVec is a family of histograms partitioned by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram { return v.f.get(labelValues).hist }

// ---- registry ----

// Registry holds metric families and renders them. The zero value is not
// usable; create with NewRegistry or use the process-wide Default.
type Registry struct {
	//provrpq:lockrank metricsRegistryMu 80
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// defaultRegistry is the process-wide registry: the engine, planner and
// store instrument it unconditionally, and rpqd's /metrics serves it.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// register returns the named family, creating it on first use. A second
// registration under the same name must agree on kind and label schema —
// a mismatch is a programming error and panics.
func (r *Registry) register(name, help string, kind Kind, labelNames []string, buckets []float64, fn func() float64) *family {
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("metrics: %s re-registered with a different kind or label schema", name))
		}
		for i := range labelNames {
			if f.labelNames[i] != labelNames[i] {
				panic(fmt.Sprintf("metrics: %s re-registered with different label names", name))
			}
		}
		if fn != nil {
			// Callback families rebind to the latest callback: a replacement
			// server (tests, reconfiguration) must not expose a closure over
			// its predecessor's state.
			f.fn = fn
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    buckets,
		children:   map[string]*child{},
		fn:         fn,
	}
	if fn == nil && len(labelNames) == 0 {
		f.get(nil) // plain instruments exist (and expose) immediately
	}
	r.families[name] = f
	return f
}

// Counter returns the named plain counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, KindCounter, nil, nil, nil).get(nil).counter
}

// CounterVec returns the named counter family keyed by labelNames.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, labelNames, nil, nil)}
}

// Gauge returns the named plain gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, KindGauge, nil, nil, nil).get(nil).gauge
}

// GaugeVec returns the named gauge family keyed by labelNames.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, KindGauge, labelNames, nil, nil)}
}

// Histogram returns the named plain histogram, creating it on first use
// with the given inclusive upper bounds (+Inf implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, KindHistogram, nil, buckets, nil).get(nil).hist
}

// HistogramVec returns the named histogram family keyed by labelNames.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, KindHistogram, labelNames, buckets, nil)}
}

// Func registers a callback metric: its value is computed at exposition
// and snapshot time. kind must be KindCounter (for values that are
// cumulative by construction, e.g. plan-cache hits) or KindGauge.
// Re-registering rebinds the callback.
func (r *Registry) Func(name, help string, kind Kind, fn func() float64) {
	if kind == KindHistogram {
		panic("metrics: histogram callbacks are not supported")
	}
	if fn == nil {
		panic("metrics: nil callback for " + name)
	}
	r.register(name, help, kind, nil, nil, fn)
}

// LatencyBuckets are the default duration buckets in seconds: 100µs to
// 10s, covering a nanosecond-scale decode that got batched behind a scan
// as well as a pathological multi-second evaluation.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// WorkBuckets are the default buckets for work-unit counts (decoded label
// units, pairs, edges): powers of ten from 1 to 1e9.
var WorkBuckets = []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// ---- snapshot ----

// Sample is one exposed series: its label values (aligned with the
// family's LabelNames) and either a scalar Value or a histogram.
type Sample struct {
	LabelValues []string
	Value       float64
	Histogram   *HistogramSnapshot // non-nil only for histogram families
}

// FamilySnapshot is one family's point-in-time state.
type FamilySnapshot struct {
	Name       string
	Help       string
	Kind       Kind
	LabelNames []string
	Samples    []Sample
}

// Snapshot copies every family, sorted by name with samples sorted by
// label values — the structured equivalent of the exposition output.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind, LabelNames: f.labelNames}
		if f.fn != nil {
			fs.Samples = []Sample{{Value: f.fn()}}
			out = append(out, fs)
			continue
		}
		f.mu.RLock()
		children := make([]*child, 0, len(f.children))
		for _, c := range f.children {
			children = append(children, c)
		}
		f.mu.RUnlock()
		sort.Slice(children, func(i, j int) bool {
			return labelKey(children[i].labelValues) < labelKey(children[j].labelValues)
		})
		for _, c := range children {
			s := Sample{LabelValues: c.labelValues}
			switch f.kind {
			case KindCounter:
				s.Value = float64(c.counter.Value())
			case KindGauge:
				s.Value = c.gauge.Value()
			case KindHistogram:
				h := c.hist.Snapshot()
				s.Histogram = &h
			}
			fs.Samples = append(fs.Samples, s)
		}
		out = append(out, fs)
	}
	return out
}

// ---- exposition ----

// WritePrometheus renders every family in the Prometheus text exposition
// format (text/plain; version=0.0.4): HELP and TYPE headers, families
// sorted by name, samples sorted by label values, histograms as
// cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, fs := range r.Snapshot() {
		if fs.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fs.Name, escapeHelp(fs.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fs.Name, fs.Kind); err != nil {
			return err
		}
		for _, s := range fs.Samples {
			if err := writeSample(w, fs, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, fs FamilySnapshot, s Sample) error {
	if fs.Kind != KindHistogram {
		_, err := fmt.Fprintf(w, "%s%s %s\n", fs.Name, renderLabels(fs.LabelNames, s.LabelValues, "", ""), formatValue(s.Value))
		return err
	}
	h := s.Histogram
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		le := "+Inf"
		if i < len(h.Bounds) {
			le = formatValue(h.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fs.Name, renderLabels(fs.LabelNames, s.LabelValues, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fs.Name, renderLabels(fs.LabelNames, s.LabelValues, "", ""), formatValue(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", fs.Name, renderLabels(fs.LabelNames, s.LabelValues, "", ""), h.Count)
	return err
}

// renderLabels formats `{a="x",b="y"}` (empty string when there are no
// labels), appending the extra pair — the histogram `le` — when set.
func renderLabels(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
func escapeLabel(s string) string { return labelEscaper.Replace(s) }
