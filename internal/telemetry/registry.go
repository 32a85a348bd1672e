package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic metric.
type Counter struct {
	v    atomic.Int64
	name string // full key, labels rendered
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are a programmer error and ignored).
func (c *Counter) Add(n int64) {
	if !enabled.Load() || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value: set it to the current level
// (queue depth) or track a running total with deltas (resident bytes).
type Gauge struct {
	v    atomic.Int64
	name string
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add applies a delta.
func (g *Gauge) Add(n int64) {
	if !enabled.Load() {
		return
	}
	g.v.Add(n)
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatCounter is a monotonically increasing float metric (accumulated
// seconds, fractional work units). Adds are a lock-free CAS on the
// float64 bit pattern, like Histogram sums.
type FloatCounter struct {
	v    atomic.Uint64 // float64 bits
	name string
}

// Add accumulates v (non-positive deltas are a programmer error and
// ignored, keeping the counter monotonic).
func (c *FloatCounter) Add(v float64) {
	if !enabled.Load() || !(v > 0) {
		return
	}
	for {
		old := c.v.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.v.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the accumulated total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.v.Load()) }

// Histogram is a fixed-bucket distribution: bounds are upper bucket
// edges (ascending), counts[i] tallies observations v <= bounds[i]
// (first matching bucket), and the implicit last bucket catches the
// overflow to +Inf. Observations are lock-free: one atomic add for the
// bucket, one for the total count, one CAS loop for the float sum.
type Histogram struct {
	name   string
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram. P50 and P99
// are fixed-bucket quantile estimates (see Quantile) computed at
// snapshot time, so every histogram surfaced on /metrics reports its
// tail without the scraper reimplementing the interpolation.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // per bucket; last entry is the +Inf overflow
	P50    float64   `json:"p50"`
	P99    float64   `json:"p99"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.P50 = s.Quantile(0.50)
	s.P99 = s.Quantile(0.99)
	return s
}

// ExponentialBuckets returns n upper bounds starting at start, each
// factor times the previous.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// SecondsBuckets is the default latency bucketing: 1ms to ~65s,
// quadrupling.
func SecondsBuckets() []float64 { return ExponentialBuckets(0.001, 4, 9) }

// BytesBuckets is the default payload-size bucketing: 256B to 4MiB,
// quadrupling.
func BytesBuckets() []float64 { return ExponentialBuckets(256, 4, 8) }

// family groups every metric sharing a base name for exposition.
type family struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"
	keys []string
}

// Registry is a named-metric registry. Registration is idempotent: the
// same (name, labels) returns the same handle, so package-level vars in
// independently initialized packages converge on shared metrics.
// Re-registering a name as a different metric type panics — that is a
// programmer error, not an operational condition.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	floats   map[string]*FloatCounter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	families map[string]*family
}

// NewRegistry builds an empty registry. Most callers want Default().
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		floats:   make(map[string]*FloatCounter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		families: make(map[string]*family),
	}
}

// renderKey builds the full metric key: name plus sorted labels in
// Prometheus form, e.g. jobs_chunks_total{source="cache"}.
func renderKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// register records the key under its family, enforcing one type per
// base name. Caller holds r.mu.
func (r *Registry) register(name, key, help, typ string) {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	for _, k := range f.keys {
		if k == key {
			return
		}
	}
	f.keys = append(f.keys, key)
	sort.Strings(f.keys)
}

// Counter returns (registering if needed) the counter for name+labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	key := renderKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[key]; ok {
		return c
	}
	r.register(name, key, help, "counter")
	c := &Counter{name: key}
	r.counters[key] = c
	return c
}

// FloatCounter returns (registering if needed) the float counter for
// name+labels. Float and integer counters may not share a base name.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	key := renderKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.floats[key]; ok {
		return c
	}
	if _, ok := r.counters[key]; ok {
		panic(fmt.Sprintf("telemetry: metric %q registered as both int and float counter", key))
	}
	r.register(name, key, help, "counter")
	c := &FloatCounter{name: key}
	r.floats[key] = c
	return c
}

// Gauge returns (registering if needed) the gauge for name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	key := renderKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[key]; ok {
		return g
	}
	r.register(name, key, help, "gauge")
	g := &Gauge{name: key}
	r.gauges[key] = g
	return g
}

// Histogram returns (registering if needed) the histogram for
// name+labels over the given ascending bucket upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
		}
	}
	key := renderKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[key]; ok {
		return h
	}
	r.register(name, key, help, "histogram")
	h := &Histogram{
		name:   key,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[key] = h
	return h
}

// Snapshot is a consistent point-in-time copy of every metric in a
// registry: one pass under the registry lock, each metric loaded once.
// Operators and the daemon's /metrics endpoint consume this instead of
// issuing field-by-field loads that interleave with live updates.
type Snapshot struct {
	Counters      map[string]int64             `json:"counters"`
	FloatCounters map[string]float64           `json:"float_counters,omitempty"`
	Gauges        map[string]int64             `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric in one locked pass.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:      make(map[string]int64, len(r.counters)),
		FloatCounters: make(map[string]float64, len(r.floats)),
		Gauges:        make(map[string]int64, len(r.gauges)),
		Histograms:    make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, c := range r.floats {
		s.FloatCounters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.hists {
		s.Histograms[k] = h.snapshot()
	}
	return s
}
