// Package pregel is the vertex-centric bulk-synchronous-parallel
// system the paper's distributed algorithms run on (§II-C).
//
// A graph is partitioned across P workers by vertex ID (v mod P, the
// mapping the paper uses). Computation proceeds in supersteps: every
// worker runs the program's Superstep against the messages delivered
// in the previous step, producing new messages and optional broadcast
// blobs; the master then routes them. The run terminates when a
// superstep produces no messages, no broadcasts, and every worker has
// voted to halt.
//
// There is one superstep loop (Master) and one place a superstep
// executes (Host). A Host holds one partition in a cmd/drworker
// process reached over net/rpc, or all P partitions in the master's
// own process reached by a method call (New) — the simulated cluster.
// Either way every message is serialized into a packet and decoded at
// the receiver, so the communication cost the loop measures includes
// real encode/copy/decode work; wire latency and bandwidth for the
// simulated cluster are added from a netsim.Model.
package pregel

import (
	"context"
	"time"

	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// Msg is the message record exchanged between vertices. The
// interpretation of Kind, Val, and Val2 is up to the program: the
// labeling programs put a vertex rank in Val and a direction flag in
// Kind; the distributed-DFS token of BFL carries the sender in Val
// and a running counter in Val2. On the wire a Msg is a variable-size
// delta+varint record (see codec.go and DESIGN.md §11), not a fixed
// 13-byte struct dump.
type Msg struct {
	Dst  graph.VertexID
	Kind uint8
	Val  int32
	Val2 int32
}

// Config configures the superstep loop. New reads Workers and Net;
// DialCluster takes the worker count from its address list and reads
// CheckpointEvery and Dial. The rest applies to both.
type Config struct {
	// Workers is the number of computation nodes P of an in-process
	// run (default 1).
	Workers int
	// Net is the simulated interconnect of an in-process run (zero
	// value = free network), charged per superstep exchange.
	Net netsim.Model
	// Ctx, when done, stops the run with its error at the next superstep
	// or in the call it interrupts, with no retry after it (nil: never).
	Ctx context.Context
	// MaxSupersteps aborts a run that fails to quiesce (a program
	// bug). 0 means the default of 4·|V|+64, which suits the BFS-style
	// programs; the token-passing DFS of BFL^D sets its own bound.
	MaxSupersteps int
	// Obs receives the loop's counters ("pregel_*", including the
	// fault-handling family) and the per-superstep trace recorder
	// named "pregel" (see internal/obs). nil disables observability at
	// zero cost.
	Obs *obs.Registry

	// CheckpointEvery snapshots worker state every k supersteps in
	// addition to the run-boundary checkpoints a cluster master always
	// takes. 0 means run-boundary checkpoints only.
	CheckpointEvery int
	// Dial opens worker connections; nil means DialRPC. Recovery
	// re-invokes it for the failed worker's address.
	Dial Dialer
}

// Program is a distributed vertex-centric computation. One Program
// value serves every partition a host holds; Superstep is invoked once
// per worker per superstep, concurrently across workers.
type Program interface {
	// Superstep processes w.Inbox and w.BcastIn and emits messages and
	// broadcasts through w. Returning active=false is the worker's
	// vote to halt; the vote is revoked automatically when the worker
	// receives messages in a later step.
	Superstep(w *Worker, step int) (active bool, err error)
	// Finish runs after the final superstep on every worker (the
	// paper's "only run after the final super-step" block), the workers
	// of a host in parallel: it writes only its own worker's state.
	Finish(w *Worker) error
}

// PreStepper is an optional Program extension. PreStep runs once per
// host, single-threaded, before each superstep's parallel compute
// phase and after broadcasts have been delivered, with the workers
// that host holds. Programs use it to apply the broadcast blobs to
// replicated state exactly once: in a physical cluster every worker
// holds its own copy of the replica, and in-process one shared copy is
// semantically identical (broadcast bytes are still charged per
// receiving worker) and avoids multiplying memory by P.
type PreStepper interface {
	PreStep(workers []*Worker, step int) error
}

// Collector is an optional Program extension for jobs whose result is
// gathered by the master: Collect encodes what the job's runs left in
// one worker's state, and Master.Collect returns the blobs in worker
// order.
type Collector interface {
	Collect(w *Worker) ([]byte, error)
}

// Worker is one computation node: a partition of the vertices plus
// the exchange endpoints the program uses during a superstep.
type Worker struct {
	// ID is the worker index in [0, P).
	ID int
	// P is the number of workers.
	P int
	// Graph is the (read-only) graph; the worker owns the vertices v
	// with v mod P == ID and must only write state for those.
	Graph *graph.Digraph
	// State is program-owned per-worker state, set up lazily by the
	// program on the first superstep.
	State any

	// Inbox holds the messages delivered to this worker's vertices in
	// the previous exchange. Within each sender's packet the messages
	// arrive sorted by destination vertex (the codec's delta encoding
	// sorts them); across senders the packets are concatenated in
	// worker order. Programs must not depend on any finer ordering.
	Inbox []Msg
	// BcastIn holds the broadcast blobs published by all workers
	// (including this one) in the previous exchange. The slice header is
	// owned by this worker, but the blobs themselves are shared and
	// read-only by contract.
	BcastIn [][]byte

	outbox [][]Msg // per-destination-worker staging
	bcast  [][]byte
}

// Owns reports whether this worker owns vertex v.
func (w *Worker) Owns(v graph.VertexID) bool { return int(v)%w.P == w.ID }

// OwnerOf returns the worker index owning vertex v.
func (w *Worker) OwnerOf(v graph.VertexID) int { return int(v) % w.P }

// OwnedVertices calls fn for every vertex this worker owns.
func (w *Worker) OwnedVertices(fn func(v graph.VertexID)) {
	n := graph.VertexID(w.Graph.NumVertices())
	for v := graph.VertexID(w.ID); v < n; v += graph.VertexID(w.P) {
		fn(v)
	}
}

// Send queues a message for delivery in the next superstep. The
// Messages metric counts what survives the program's combiner (if
// any), not raw Send calls.
func (w *Worker) Send(m Msg) {
	d := w.OwnerOf(m.Dst)
	w.outbox[d] = append(w.outbox[d], m)
}

// Broadcast publishes a blob to every worker (delivered next
// superstep, including back to the sender). The loop counts
// len(blob) × (P−1) remote bytes for it.
func (w *Worker) Broadcast(blob []byte) {
	if len(blob) == 0 {
		return
	}
	w.bcast = append(w.bcast, blob)
}

// The phases of a build's cost record, by the names its rows carry.
// A superstep row divides its measured wall into the first six: what
// the slowest host spent decoding its packets, in PreStep, in the
// programs' Superstep and encoding its outboxes, what the step's calls
// took beyond that (envelopes, transport, waiting on the host), and
// what the master spent routing the replies. The rest are the build's
// phases outside any superstep, one row each time they run.
const (
	PhaseDecode   = "decode"
	PhasePreStep  = "prestep"
	PhaseCompute  = "compute"
	PhaseEncode   = "encode"
	PhaseExchange = "exchange"
	PhaseRoute    = "route"

	PhaseDial       = "dial"       // dial and Init the workers
	PhaseBegin      = "begin"      // BeginRun: each run's program set up on every host
	PhaseFinish     = "finish"     // FinishRun: each run's Finish on every host
	PhaseCheckpoint = "checkpoint" // snapshot every worker at a barrier
	PhaseRecover    = "recover"    // a worker failure: the superstep it cut short, re-dial, re-Init, restore
	PhaseLoad       = "load"       // the master reads the graph file
	PhaseOrder      = "order"      // the master computes the vertex order
	PhaseGather     = "gather"     // Collect and decode the results, with their modelled bytes
	PhaseLayout     = "layout"     // the gathered lists laid out as the index
)

// Metrics is a master's cost record summed: every row it recorded,
// superstep or outside phase (Master.record is the one writer).
type Metrics struct {
	Supersteps  int
	Messages    int64
	BytesLocal  int64 // bytes that stayed on the owning worker
	BytesRemote int64 // bytes that crossed worker boundaries, the gather's included
	BcastBytes  int64
	SimNetTime  time.Duration // modeled wire latency + bandwidth

	// Fault-handling counters (always zero in process, where there is
	// no network to fail): retried calls, checkpoint restores after
	// worker failures, checkpoints taken, bytes moved by checkpoints,
	// and the superstep of the newest checkpoint.
	Retries            int64
	Recoveries         int64
	Checkpoints        int64
	CheckpointBytes    int64
	LastCheckpointStep int

	// Phases is the measured time by phase.
	Phases obs.Phases
}

// ComputeTime is Fig. 5's computation: the supersteps' PreStep and
// Superstep phases.
func (m *Metrics) ComputeTime() time.Duration {
	return m.Phases[PhasePreStep] + m.Phases[PhaseCompute]
}

// CommTime is the supersteps' measured communication: decode, encode,
// exchange and routing.
func (m *Metrics) CommTime() time.Duration {
	return m.Phases[PhaseDecode] + m.Phases[PhaseEncode] + m.Phases[PhaseExchange] + m.Phases[PhaseRoute]
}

// TotalComm returns measured plus simulated communication time.
func (m *Metrics) TotalComm() time.Duration { return m.CommTime() + m.SimNetTime }

// Total returns the full modeled superstep time.
func (m *Metrics) Total() time.Duration { return m.ComputeTime() + m.TotalComm() }
