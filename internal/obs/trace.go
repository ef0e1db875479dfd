package obs

import "sync"

// StepTrace is one per-superstep row of a run's execution trace — the
// observable shape of Fig. 5: who was active, how much was said, and
// how long the barrier took.
type StepTrace struct {
	// Run distinguishes runs sharing one worker set (the batch
	// algorithm runs once per batch).
	Run int `json:"run"`
	// Step is the superstep number within the run.
	Step int `json:"step"`
	// ActiveWorkers counts workers that did not vote to halt.
	ActiveWorkers int `json:"active_workers"`
	// Messages, BytesLocal, BytesRemote, and BcastBytes are this
	// step's exchange volume (deltas, not running totals).
	Messages    int64 `json:"messages"`
	BytesLocal  int64 `json:"bytes_local"`
	BytesRemote int64 `json:"bytes_remote"`
	BcastBytes  int64 `json:"bcast_bytes"`
	// Retries and Recoveries are the fault-handling activity charged
	// to this step (clusters only; always zero in-process).
	Retries    int64 `json:"retries,omitempty"`
	Recoveries int64 `json:"recoveries,omitempty"`
	// ComputeNanos is the BSP makespan of the compute phase (slowest
	// worker); WallNanos additionally includes the measured exchange.
	ComputeNanos int64 `json:"compute_ns"`
	WallNanos    int64 `json:"wall_ns"`
	// Workers holds the per-worker breakdown.
	Workers []WorkerStep `json:"workers,omitempty"`
}

// WorkerStep is one worker's share of a superstep.
type WorkerStep struct {
	Worker int `json:"worker"`
	// ComputeNanos is this worker's compute-phase wall time.
	ComputeNanos int64 `json:"compute_ns"`
	// Active reports whether the worker voted to stay active.
	Active bool `json:"active"`
	// MsgsIn is the number of messages delivered to this worker at the
	// start of the step.
	MsgsIn int `json:"msgs_in"`
}

// DefaultTraceCap bounds how many superstep rows a Trace retains; the
// newest rows win (a long build keeps its tail, the part a live
// debugging session cares about).
const DefaultTraceCap = 4096

// Trace is a bounded, concurrency-safe recorder of superstep rows.
type Trace struct {
	mu    sync.Mutex
	cap   int
	ring  []StepTrace
	next  int   // ring write cursor once full
	total int64 // rows ever recorded
}

// NewTrace returns a recorder retaining the newest max rows
// (max <= 0 uses DefaultTraceCap).
func NewTrace(max int) *Trace {
	if max <= 0 {
		max = DefaultTraceCap
	}
	return &Trace{cap: max}
}

// Record appends one superstep row, evicting the oldest at capacity.
func (t *Trace) Record(s StepTrace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, s)
		return
	}
	t.ring[t.next] = s
	t.next = (t.next + 1) % t.cap
}

// Steps returns the retained rows, oldest first.
func (t *Trace) Steps() []StepTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StepTrace, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Total returns how many rows were ever recorded (retained or
// evicted).
func (t *Trace) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}
