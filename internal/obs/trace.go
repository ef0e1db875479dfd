package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// StepTrace is one row of a build's cost record: a superstep — the
// observable shape of Fig. 5: who was active, how much was said, and
// where the barrier's time went — or, when Phase is set, one stretch
// of the build outside the supersteps (a checkpoint, a recovery, the
// gather, …). A master's Metrics are the sum of its rows.
type StepTrace struct {
	// Run distinguishes runs sharing one worker set (the batch
	// algorithm runs once per batch).
	Run int `json:"run"`
	// Step is the superstep number within the run; on a checkpoint's
	// row, the superstep the checkpoint feeds.
	Step int `json:"step"`
	// Phase names an outside row's phase; it is empty on a superstep's.
	Phase string `json:"phase,omitempty"`
	// ActiveWorkers counts workers that did not vote to halt.
	ActiveWorkers int `json:"active_workers"`
	// Messages, BytesLocal, BytesRemote, and BcastBytes are this
	// row's exchange volume (deltas, not running totals); the gather's
	// row carries its modelled bytes in BytesRemote.
	Messages    int64 `json:"messages"`
	BytesLocal  int64 `json:"bytes_local"`
	BytesRemote int64 `json:"bytes_remote"`
	BcastBytes  int64 `json:"bcast_bytes"`
	// Retries, Recoveries, Checkpoints and CheckpointBytes are the
	// fault handling charged to this row (clusters only; always zero
	// in process): the calls retried since the previous row, the
	// recovery a recover row made, the snapshot a checkpoint row took.
	Retries         int64 `json:"retries,omitempty"`
	Recoveries      int64 `json:"recoveries,omitempty"`
	Checkpoints     int64 `json:"checkpoints,omitempty"`
	CheckpointBytes int64 `json:"checkpoint_bytes,omitempty"`
	// WallNanos is the row's measured wall time, and Phases divides it
	// exactly.
	WallNanos int64  `json:"wall_ns"`
	Phases    Phases `json:"phases_ns"`
	// Workers holds the per-worker breakdown of a superstep.
	Workers []WorkerStep `json:"workers,omitempty"`
}

// Phases divides a span of time by where it went, keyed by phase name
// (in JSON each value is nanoseconds).
type Phases map[string]time.Duration

// Add adds q into *p, allocating *p when it is nil.
func (p *Phases) Add(q Phases) {
	if *p == nil && len(q) > 0 {
		*p = make(Phases, len(q))
	}
	for k, d := range q {
		(*p)[k] += d
	}
}

// Total is the time of every phase together.
func (p Phases) Total() time.Duration {
	var t time.Duration
	for _, d := range p {
		t += d
	}
	return t
}

// String lists the phases largest first, each with its share of the
// total: "compute 1.2s (40%), encode 900ms (30%), …".
func (p Phases) String() string {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := names[i], names[j]
		return p[a] > p[b] || p[a] == p[b] && a < b
	})
	total := float64(max(p.Total(), 1))
	for i, k := range names {
		names[i] = fmt.Sprintf("%s %v (%.0f%%)", k, p[k].Round(time.Millisecond), 100*float64(p[k])/total)
	}
	return strings.Join(names, ", ")
}

// WorkerStep is one worker's share of a superstep.
type WorkerStep struct {
	Worker int `json:"worker"`
	// ComputeNanos is the wall time of this worker's Superstep plus its
	// host's PreStep: every worker of a physical cluster applies the
	// broadcasts to its own replica, so each pays for PreStep. A host
	// with fewer cores than partitions runs them interleaved, and each
	// one's time includes its waits.
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
