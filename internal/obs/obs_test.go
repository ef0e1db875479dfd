package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters only go up
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if r.Counter("x_total") != c {
		t.Error("Counter is not get-or-create")
	}
	g := r.Gauge("y")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
	if r.CounterValue("x_total") != 42 || r.CounterValue("absent") != 0 {
		t.Error("CounterValue mismatch")
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("a").Add(1)
	r.Gauge("b").Set(1)
	r.Histogram("c", nil).Observe(1)
	r.Trace("d").Record(StepTrace{})
	if r.Counter("a").Value() != 0 || r.Trace("d").Total() != 0 {
		t.Error("nil registry leaked state")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil WritePrometheus = %q, %v", sb.String(), err)
	}
	if len(r.TraceSnapshot()) != 0 {
		t.Error("nil TraceSnapshot not empty")
	}
}

// TestConcurrentUpdates hammers one registry from many goroutines;
// run under -race this is the registry's thread-safety proof, and the
// totals prove no update was lost.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c_total").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h_seconds", nil).Observe(0.001)
				r.Trace("t").Record(StepTrace{Step: i})
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("g").Value(); got != workers*per {
		t.Errorf("gauge = %d, want %d", got, workers*per)
	}
	h := r.Histogram("h_seconds", nil)
	if h.Count() != workers*per {
		t.Errorf("hist count = %d, want %d", h.Count(), workers*per)
	}
	if math.Abs(h.Sum()-workers*per*0.001) > 1e-6 {
		t.Errorf("hist sum = %g", h.Sum())
	}
	if r.Trace("t").Total() != workers*per {
		t.Errorf("trace total = %d", r.Trace("t").Total())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 7, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 8 {
		t.Fatalf("count = %d", got)
	}
	// The 0.5-quantile of 8 observations lands in the bucket of the
	// 4th: values {0.5,1.5,1.5,3,...} → cum counts {1,3,6,...}, so
	// bucket le=4.
	if got := h.Quantile(0.5); got != 4 {
		t.Errorf("q50 = %g, want 4", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %g, want 1", got)
	}
	// Observations past the last bound report the last bound.
	if got := h.Quantile(1); got != 8 {
		t.Errorf("q100 = %g, want 8", got)
	}
	var empty *Histogram
	if empty.Quantile(0.5) != 0 || empty.Count() != 0 {
		t.Error("nil histogram not zero")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("pregel_messages_total").Add(42)
	r.Counter(Label("http_requests_total", "handler", "reach")).Add(3)
	r.Counter(Label("http_requests_total", "handler", "stats")).Add(1)
	r.Gauge("workers").Set(5)
	h := r.Histogram("query_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pregel_messages_total counter\npregel_messages_total 42\n",
		"http_requests_total{handler=\"reach\"} 3\n",
		"http_requests_total{handler=\"stats\"} 1\n",
		"# TYPE workers gauge\nworkers 5\n",
		"# TYPE query_seconds histogram\n",
		"query_seconds_bucket{le=\"0.001\"} 1\n",
		"query_seconds_bucket{le=\"0.01\"} 1\n",
		"query_seconds_bucket{le=\"+Inf\"} 2\n",
		"query_seconds_sum 0.5005\n",
		"query_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family, even with several labeled series.
	if strings.Count(out, "# TYPE http_requests_total") != 1 {
		t.Errorf("family http_requests_total should have exactly one TYPE line:\n%s", out)
	}
	// Deterministic: a second render is byte-identical.
	var sb2 strings.Builder
	r.WritePrometheus(&sb2)
	if sb2.String() != out {
		t.Error("non-deterministic exposition output")
	}
}

func TestTraceRing(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Record(StepTrace{Step: i})
	}
	steps := tr.Steps()
	if len(steps) != 4 {
		t.Fatalf("retained %d rows, want 4", len(steps))
	}
	for i, s := range steps {
		if s.Step != 6+i {
			t.Errorf("row %d = step %d, want %d (oldest-first tail)", i, s.Step, 6+i)
		}
	}
	if tr.Total() != 10 {
		t.Errorf("total = %d, want 10", tr.Total())
	}
}

// Quantile estimates the q-quantile (0 <= q <= 1) as the upper bound
// of the bucket holding it — an over-estimate by at most one bucket
// width, which is what fixed buckets can promise. Returns 0 with no
// observations; observations beyond the last bound report the last
// bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q*float64(total) + 0.5)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		if cum >= target {
			return h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1]
}
