// Package metrics is the simulator's observability substrate: a registry
// of counters, gauges, and histograms whose observations are timestamped
// on the **virtual clock**, so a time series of background-queue depth or
// file-system utilization is meaningful even though a 12,288-rank run
// completes in milliseconds of wall time.
//
// Instruments record change points rather than being polled: every
// update appends (virtual time, value) to the instrument's series (when
// series recording is enabled), which is exactly the step function a
// counter track in a trace viewer wants. Updates from processes that are
// concurrent at the same virtual instant coalesce to one point holding
// the instant's final value, keeping exports deterministic regardless of
// goroutine scheduling.
//
// All instrument methods are safe on a nil receiver and a nil *Registry
// returns nil instruments, so instrumented code records unconditionally
// — an uninstrumented subsystem pays only a nil check (the same pattern
// trace.Span uses).
//
// Determinism rules for writers (enforced by convention, asserted by the
// observability tests):
//
//   - Counter.Add and Gauge.Add are order-independent, so any number of
//     same-instant concurrent writers stay deterministic as long as Gauge
//     deltas are integral (float64 sums of integers are exact).
//   - Gauge.Set must have a single writer per instant (setup-time
//     configuration, or an OnChange hook of another gauge, which runs
//     under that gauge's update lock).
//   - Histogram statistics are computed from value-sorted samples, so
//     observation order never matters.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asyncio/internal/vclock"
)

// Kind identifies an instrument type.
type Kind string

// Instrument kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Sample is one point of an instrument's virtual-time series.
type Sample struct {
	At time.Duration
	V  float64
}

// Registry holds one simulation's instruments, keyed by name. Construct
// with NewRegistry; the zero value and nil are usable as "no metrics".
type Registry struct {
	clk *vclock.Clock
	// nowFn, when non-nil, replaces clk as the time source. Services
	// that live on the wall clock rather than a simulation's virtual
	// clock (cmd/asyncio-serve instruments itself with a registry)
	// construct with NewRegistryWithNow.
	nowFn func() time.Duration

	// series is set only before a run (NewRegistry, EnableSeries) and
	// read on every counter and gauge update, so it is lock-free.
	series atomic.Bool

	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// seriesDefault is consulted by NewRegistry. Tools that cannot reach a
// registry before the run constructs it (cmd/asyncio-bench builds
// systems deep inside experiment sweeps) flip it with SetSeriesDefault.
var (
	seriesDefaultMu sync.Mutex
	seriesDefault   bool
)

// SetSeriesDefault makes registries created afterwards record series by
// default. Returns the previous default.
func SetSeriesDefault(enabled bool) bool {
	seriesDefaultMu.Lock()
	defer seriesDefaultMu.Unlock()
	prev := seriesDefault
	seriesDefault = enabled
	return prev
}

// NewRegistry returns an empty registry stamping observations with clk's
// virtual time. Series recording starts at the package default (see
// SetSeriesDefault); current values and histogram samples are always
// kept.
func NewRegistry(clk *vclock.Clock) *Registry {
	seriesDefaultMu.Lock()
	series := seriesDefault
	seriesDefaultMu.Unlock()
	r := &Registry{
		clk:    clk,
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
	r.series.Store(series)
	return r
}

// EnableSeries turns on change-point series recording for counters and
// gauges. Call before the run starts; points are only captured from then
// on.
func (r *Registry) EnableSeries() {
	if r == nil {
		return
	}
	r.series.Store(true)
}

// SeriesEnabled reports whether change-point series are being recorded.
func (r *Registry) SeriesEnabled() bool {
	if r == nil {
		return false
	}
	return r.series.Load()
}

// NewRegistryWithNow returns a registry stamping observations with the
// given time source instead of a virtual clock — for long-running
// services that instrument themselves with the same counter/gauge/
// histogram substrate the simulator uses, but live on wall time.
// Typical use: a monotonic offset since process start, so exports stay
// meaningful without depending on absolute dates.
func NewRegistryWithNow(now func() time.Duration) *Registry {
	r := NewRegistry(nil)
	r.nowFn = now
	return r
}

// now returns the registry's virtual time (0 for a nil registry).
func (r *Registry) now() time.Duration {
	if r == nil {
		return 0
	}
	if r.nowFn != nil {
		return r.nowFn()
	}
	if r.clk == nil {
		return 0
	}
	return r.clk.Now()
}

// Now exposes the registry's virtual time to exporters that need an
// end-of-run timestamp (0 for a nil registry).
func (r *Registry) Now() time.Duration { return r.now() }

// Counter returns (creating if needed) the named monotonically
// increasing counter. Nil registry returns nil — a no-op instrument.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		c = &Counter{reg: r, name: name}
		r.counts[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{reg: r, name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{reg: r, name: name}
		r.hists[name] = h
	}
	return h
}

// FindCounter returns the named counter, or nil if none is registered.
// Unlike Counter it never creates, so exporters can probe without
// polluting the registry.
func (r *Registry) FindCounter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// FindGauge returns the named gauge, or nil if none is registered.
func (r *Registry) FindGauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// FindHistogram returns the named histogram, or nil if none is
// registered.
func (r *Registry) FindHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists[name]
}

// Names returns all registered instrument names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counts)+len(r.gauges)+len(r.hists))
	for n := range r.counts {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// series is the shared change-point recording behind counters and
// gauges. Callers hold the owning instrument's mutex.
type series struct {
	points []Sample
}

// record appends (at, v), coalescing same-instant updates to the
// instant's final value.
func (s *series) record(at time.Duration, v float64) {
	if n := len(s.points); n > 0 && s.points[n-1].At == at {
		s.points[n-1].V = v
		return
	}
	s.points = append(s.points, Sample{At: at, V: v})
}

// Counter is a monotonically increasing int64.
type Counter struct {
	reg  *Registry
	name string

	mu  sync.Mutex
	v   int64
	ser series
}

// Name returns the counter's registered name ("" for nil).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Add increments the counter by n (n < 0 is ignored — counters are
// monotone). No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	at := c.reg.now()
	recording := c.reg.SeriesEnabled()
	c.mu.Lock()
	c.v += n
	if recording {
		c.ser.record(at, float64(c.v))
	}
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Series returns a copy of the recorded change points.
func (c *Counter) Series() []Sample {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Sample(nil), c.ser.points...)
}

// Gauge is a value that can go up and down. See the package comment for
// the determinism contract on Add vs Set.
type Gauge struct {
	reg  *Registry
	name string

	mu       sync.Mutex
	v        float64
	ser      series
	onChange func(at time.Duration, v float64)

	// Time-weighted accumulators, maintained on every update regardless
	// of series recording. area integrates the step function up to
	// lastAt; maxHeld tracks the largest value that persisted for a
	// nonzero interval (same-instant intermediates are never observed,
	// keeping concurrent same-instant Adds order-independent).
	area    float64
	lastAt  time.Duration
	maxHeld float64
}

// Name returns the gauge's registered name ("" for nil).
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// OnChange registers fn to run after every update, under the gauge's
// update lock with the post-update value. Use it to maintain a gauge
// derived from this one (e.g. effective bandwidth from an in-flight
// count): because the hook runs in value-update order, the derived
// series coalesces deterministically. fn must not touch g itself.
func (g *Gauge) OnChange(fn func(at time.Duration, v float64)) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.onChange = fn
	g.mu.Unlock()
}

// Add shifts the gauge by d. Concurrent same-instant adds must use
// integral deltas to stay deterministic. No-op on nil.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.update(func(v float64) float64 { return v + d })
}

// Set replaces the gauge's value. Single writer per instant.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.update(func(float64) float64 { return v })
}

func (g *Gauge) update(f func(float64) float64) {
	at := g.reg.now()
	recording := g.reg.SeriesEnabled()
	g.mu.Lock()
	if at > g.lastAt {
		g.area += g.v * (at - g.lastAt).Seconds()
		if g.v > g.maxHeld {
			g.maxHeld = g.v
		}
		g.lastAt = at
	}
	g.v = f(g.v)
	if recording {
		g.ser.record(at, g.v)
	}
	hook := g.onChange
	v := g.v
	if hook != nil {
		// Run under g.mu so derived updates happen in this gauge's
		// value order; the hook updates a *different* gauge, so the
		// nested lock is ordered and cannot cycle.
		hook(at, v)
	}
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// TimeWeightedStats summarizes the gauge's step function over [0, end]:
// the time-weighted mean, and the maximum value the gauge held for a
// nonzero interval (including the current value, which holds through
// end). end at or before the last update extends the horizon to the
// last update instead, and a zero horizon returns the current value as
// its own mean.
func (g *Gauge) TimeWeightedStats(end time.Duration) (mean, max float64) {
	if g == nil {
		return 0, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	max = g.maxHeld
	if g.v > max {
		max = g.v
	}
	area, horizon := g.area, g.lastAt
	if end > horizon {
		area += g.v * (end - horizon).Seconds()
		horizon = end
	}
	if horizon <= 0 {
		return g.v, max
	}
	return area / horizon.Seconds(), max
}

// Series returns a copy of the recorded change points.
func (g *Gauge) Series() []Sample {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Sample(nil), g.ser.points...)
}

// Histogram collects float64 observations and answers order-independent
// summary statistics. Samples are retained exactly; the workloads this
// simulator runs observe at most a few million points per run.
type Histogram struct {
	reg  *Registry
	name string

	mu      sync.Mutex
	samples []float64
}

// Name returns the histogram's registered name ("" for nil).
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Observe records one value. NaN observations are dropped — they would
// poison every statistic. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// HistSnapshot is an order-independent summary of a histogram.
type HistSnapshot struct {
	Count          int
	Min, Max, Mean float64
	P50, P95, P99  float64
}

// Snapshot computes the summary from value-sorted samples. An empty
// histogram snapshots to all zeros; a single sample is every quantile.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	sorted := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	if len(sorted) == 0 {
		return HistSnapshot{}
	}
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return HistSnapshot{
		Count: len(sorted),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		Mean:  sum / float64(len(sorted)),
		P50:   Quantile(sorted, 0.50),
		P95:   Quantile(sorted, 0.95),
		P99:   Quantile(sorted, 0.99),
	}
}

// Quantile returns the nearest-rank quantile of an already-sorted,
// non-empty sample set: the smallest value such that at least q of the
// mass is at or below it. q outside [0,1] is clamped; an empty slice
// returns 0.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}
