package obs

import (
	"errors"
	"math"
	"regexp"
	"slices"
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
	r.Gauge("b").Add(1)
	r.Histogram("c", nil).Observe(1)
	r.Trace("d").Record(StepTrace{})
	if r.Counter("a").Value() != 0 || r.CounterValue("a") != 0 || r.Gauge("b").Value() != 0 ||
		r.Histogram("c", nil).Count() != 0 || r.Histogram("c", nil).Sum() != 0 ||
		r.Trace("d").Total() != 0 || r.Trace("d").Steps() != nil {
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
	// No bounds are LatencyBuckets.
	d := newHistogram(nil)
	d.Observe(3e-6)
	if got := d.Quantile(0.5); got != 5e-6 {
		t.Errorf("q50 of 3µs under the default buckets = %g, want 5e-06", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("pregel_messages_total").Add(42)
	r.Counter(Label("http_requests_total", "handler", "reach")).Add(3)
	r.Counter(Label("http_requests_total", "handler", "stats")).Add(1)
	r.Gauge("workers").Set(5)
	// A family with both unlabelled and labelled series, and a family
	// whose name extends it and sorts between the two.
	r.Gauge(Label("workers", "pool", "b")).Set(2)
	r.Counter("workers_started_total").Inc()
	h := r.Histogram("query_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)
	r.Histogram(Label("http_request_seconds", "handler", "batch"), []float64{0.001}).Observe(0.002)
	r.Histogram(Label("http_request_seconds", "handler", "reach"), []float64{0.001}).Observe(0.0005)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pregel_messages_total counter\npregel_messages_total 42\n",
		"http_requests_total{handler=\"reach\"} 3\nhttp_requests_total{handler=\"stats\"} 1\n",
		"# TYPE workers gauge\nworkers 5\nworkers{pool=\"b\"} 2\n",
		"# TYPE query_seconds histogram\n",
		"query_seconds_bucket{le=\"0.001\"} 1\n",
		"query_seconds_bucket{le=\"0.01\"} 1\n",
		"query_seconds_bucket{le=\"+Inf\"} 2\n",
		"query_seconds_sum 0.5005\n",
		"query_seconds_count 2\n",
		"http_request_seconds_bucket{handler=\"batch\",le=\"0.001\"} 0\n",
		"http_request_seconds_bucket{handler=\"batch\",le=\"+Inf\"} 1\n",
		"http_request_seconds_sum{handler=\"batch\"} 0.002\n",
		"http_request_seconds_count{handler=\"batch\"} 1\n",
		"http_request_seconds_bucket{handler=\"reach\",le=\"0.001\"} 1\n",
		"http_request_seconds_count{handler=\"reach\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family, families sorted, even with several
	// labelled series, and every other line a text-0.0.4 sample:
	// name{k="v",…} value, with a bucket's le last.
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? \S+$`)
	labelKey := regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)
	var typed []string // the families of the TYPE lines, in order
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			typed = append(typed, strings.Fields(fam)[0])
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("not a text-0.0.4 sample line: %q", line)
			continue
		}
		var keys []string
		for _, k := range labelKey.FindAllStringSubmatch(m[2], -1) {
			keys = append(keys, k[1])
		}
		bucket := strings.HasSuffix(m[1], "_bucket")
		if le := slices.Index(keys, "le"); bucket && le != len(keys)-1 || !bucket && le >= 0 {
			t.Errorf("le is not the last label of exactly the bucket lines: %q", line)
		}
	}
	families := []string{"http_request_seconds", "http_requests_total", "pregel_messages_total",
		"query_seconds", "workers", "workers_started_total"}
	if !slices.Equal(typed, families) {
		t.Errorf("TYPE lines for %v, want one a family, sorted: %v\n%s", typed, families, out)
	}
	// A writer that fails is reported, not written past.
	if err := r.WritePrometheus(failWriter{}); err == nil {
		t.Error("WritePrometheus into a failing writer returned no error")
	}
	// Deterministic: every render is byte-identical, though each walks
	// the registry's maps in a new order.
	for range 10 {
		var again strings.Builder
		r.WritePrometheus(&again)
		if again.String() != out {
			t.Fatal("non-deterministic exposition output")
		}
	}
}

// failWriter refuses every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("writer gone") }

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
