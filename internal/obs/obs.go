// Package obs is the repo's zero-dependency observability layer:
// named counters, gauges, and fixed-bucket latency histograms behind
// an atomic, race-safe registry, plus per-superstep trace recorders
// (trace.go) and an HTTP exposition surface (http.go) serving the
// Prometheus text format and net/http/pprof.
//
// The paper's headline claims are quantitative — labeling time,
// message volume per superstep, index size, query latency (§VI) — so
// every layer that produces such a number (the pregel superstep loop,
// the DRL builders, the query server) records it here instead of
// keeping it in one-shot structs only.
//
// Nil-safety is part of the contract: a nil *Registry hands out nil
// metric handles, and every method on a nil handle is a no-op. Call
// sites therefore instrument unconditionally; plumbing a registry in
// is opt-in.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: bucket i counts observations v <= bounds[i], plus an implicit
// +Inf bucket. Observations are lock-free.
type Histogram struct {
	bounds  []float64      // ascending upper bounds, +Inf implicit
	counts  []atomic.Int64 // len(bounds)+1
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// LatencyBuckets is the default bucket layout for second-denominated
// latencies: 1µs to 10s, roughly logarithmic.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets is the default layout for counts and byte sizes:
// powers of four from 1 to ~10^9.
var SizeBuckets = []float64{
	1, 4, 16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10,
	256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, floatBits(floatFrom(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return floatFrom(h.sumBits.Load())
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// Registry is a named-metric namespace. All methods are safe for
// concurrent use; handles are get-or-create, so hot paths can resolve
// them once and then update lock-free. A nil *Registry is a valid
// no-op sink.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	traces   map[string]*Trace
}

// Default is the process-wide registry the commands expose over HTTP.
var Default = New()

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		traces:   map[string]*Trace{},
	}
}

// Counter returns the counter registered under name, creating it on
// first use. The name may carry Prometheus labels inline, e.g.
// `http_requests_total{handler="reach"}`.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds on first use (nil bounds =
// LatencyBuckets). The bounds of an existing histogram win. The name
// may carry labels inline, as Counter's does.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Trace returns the superstep trace recorder registered under name,
// creating it with the default capacity on first use.
func (r *Registry) Trace(name string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.traces[name]
	if !ok {
		t = NewTrace(0)
		r.traces[name] = t
	}
	return t
}

// CounterValue reads a counter without creating it (0 if absent).
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// family strips inline labels: `a_total{x="y"}` → `a_total`.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4), grouped by family and sorted for
// deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type series struct {
		fam, name string
		kind      string // "counter" | "gauge" | "histogram"
		write     func(io.Writer)
	}
	r.mu.Lock()
	var all []series
	for name, c := range r.counters {
		all = append(all, series{family(name), name, "counter", func(w io.Writer) {
			fmt.Fprintf(w, "%s %d\n", name, c.Value())
		}})
	}
	for name, g := range r.gauges {
		all = append(all, series{family(name), name, "gauge", func(w io.Writer) {
			fmt.Fprintf(w, "%s %d\n", name, g.Value())
		}})
	}
	for name, h := range r.hists {
		fam := family(name)
		labels := name[len(fam):] // `{k="v"}`, or "" for an unlabelled series
		le := "{"                 // the bucket's labels, with le last
		if labels != "" {
			le = labels[:len(labels)-1] + ","
		}
		all = append(all, series{fam, name, "histogram", func(w io.Writer) {
			var cum int64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", fam, le, strconv.FormatFloat(bound, 'g', -1, 64), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", fam, le, cum)
			fmt.Fprintf(w, "%s_sum%s %s\n", fam, labels, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
			fmt.Fprintf(w, "%s_count%s %d\n", fam, labels, h.Count())
		}})
	}
	r.mu.Unlock()

	sort.Slice(all, func(i, j int) bool {
		if all[i].fam != all[j].fam {
			return all[i].fam < all[j].fam
		}
		return all[i].name < all[j].name
	})
	// A bufio.Writer keeps the first write error and takes nothing after
	// it, so the one Flush reports whatever failed.
	bw := bufio.NewWriter(w)
	lastFam := ""
	for _, s := range all {
		if s.fam != lastFam {
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.fam, s.kind)
			lastFam = s.fam
		}
		s.write(bw)
	}
	return bw.Flush()
}

// Label renders one inline Prometheus label: Label("h", "handler",
// "reach") → `h{handler="reach"}`.
func Label(name, key, value string) string {
	return name + "{" + key + "=" + strconv.Quote(value) + "}"
}
