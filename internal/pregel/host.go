package pregel

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// A Host is where supersteps execute: the partitions one process
// holds, the program running on them, and the only code that decodes
// packets, runs PreStep and Superstep, and encodes outboxes. The
// master drives it through a Transport — net/rpc over TCP to a
// cmd/drworker process holding one partition, or a method call to the
// host New builds inside the master's own process holding all P.
//
// A host reached over TCP instantiates its programs from a registered
// factory (the master only sends the program name and parameters), so
// each process holds its own replica state; the in-process host is
// handed the Program value itself.
//
// The transport assumes real network weather: every master→host call
// runs under a per-attempt deadline with bounded exponential backoff +
// jitter retries (the master's constants), hosts deduplicate repeated
// calls so a retried superstep never executes twice, and crashed
// workers are re-dialed and restored from the last superstep
// checkpoint (see checkpoint.go for the recovery model).

// RPCServiceName is the registered net/rpc service name.
const RPCServiceName = "DRLWorker"

// ProgramFactory creates the program for one run inside a host. It is
// called once per run (the batch algorithm runs once per batch) with
// the run's parameters; worker state persists across the job's runs.
type ProgramFactory func(h *Host, params map[string]string) (Program, error)

var (
	rpcRegistry = map[string]ProgramFactory{}
	rpcMu       sync.Mutex
)

// RegisterRPC registers a program factory under a name. Intended to be
// called from init functions of program packages.
func RegisterRPC(name string, f ProgramFactory) {
	rpcMu.Lock()
	defer rpcMu.Unlock()
	rpcRegistry[name] = f
}

func lookupRPC(name string) (ProgramFactory, error) {
	rpcMu.Lock()
	defer rpcMu.Unlock()
	f, ok := rpcRegistry[name]
	if !ok {
		return nil, fmt.Errorf("pregel: no RPC program %q registered", name)
	}
	return f, nil
}

// InitArgs configures a worker process for a job.
type InitArgs struct {
	WorkerID   int
	NumWorkers int
	// GraphPath is loaded by the worker itself: in a real deployment
	// every node reads its partition from shared storage.
	GraphPath string
}

// InitReply tells the master the size of the graph the worker loaded,
// which bounds the supersteps of a run.
type InitReply struct {
	NumVertices int
}

// BeginRunArgs starts one run (e.g. one batch). RunID makes the call
// idempotent: a retried or recovery-replayed BeginRun for a run the
// host has already begun is a no-op.
type BeginRunArgs struct {
	RunID   int
	Program string
	Params  map[string]string

	// prog, when set, is the program itself instead of a registered
	// name. gob skips unexported fields, so it only ever arrives over
	// the direct transport.
	prog Program
}

// StepArgs carries one superstep's inputs to a host.
type StepArgs struct {
	Step int
	// Packets[k] holds the encoded Msg buffers destined to the k-th
	// partition the host holds.
	Packets [][][]byte
	Bcasts  [][]byte // all broadcasts from the previous step
}

// WorkerReply is one partition's share of a StepReply: its row of the
// step's record, and its output.
type WorkerReply struct {
	obs.WorkerStep
	Out    [][]byte // Out[dst] = the packet for worker dst, nil for none
	Bcasts [][]byte
	// MsgsOut is the number of records the worker put on the wire this
	// step (post-combining).
	MsgsOut int64
}

// StepReply carries a host's outputs, one entry per partition it
// holds, and the time the host spent in each of its phases of the step
// (decode, prestep, compute, encode); the master charges the rest of
// the call to the exchange.
type StepReply struct {
	Workers []WorkerReply
	Phases  obs.Phases
}

// CollectReply returns the encoded results of the host's partitions.
type CollectReply struct {
	Blobs [][]byte
}

// Host is the net/rpc service (and the in-process target of the direct
// transport) holding one or all partitions.
//
// Delivery semantics: Step deduplicates on the superstep number — a
// retry of the step the host just executed returns the cached reply
// without recomputing, and a step that is neither the cached one nor
// the next expected one fails with an out-of-sync error that makes
// the master restore from checkpoint. BeginRun deduplicates on RunID
// and FinishRun on a per-run flag, so every mutating call is
// effectively exactly-once under the master's at-least-once retries.
type Host struct {
	// Graph is for program factories: the graph Init loaded.
	Graph *graph.Digraph

	mu      sync.Mutex
	workers []*Worker
	prog    Program
	comb    Combiner

	runID     int
	lastStep  int
	haveReply bool
	lastReply StepReply
	finished  bool

	stepCount int
	stepHook  func(completedSteps int)
}

// WorkerOptions tunes a worker service.
type WorkerOptions struct {
	// StepHook, if set, runs after every executed (non-deduplicated)
	// superstep with the total count so far. cmd/drworker uses it to
	// implement the -crash-after fault-injection flag.
	StepHook func(completedSteps int)
}

// hold makes h the host of partitions [first, first+count) of p over g
// and forgets any earlier job.
func (h *Host) hold(g *graph.Digraph, first, count, p int) {
	h.Graph = g
	h.workers = make([]*Worker, count)
	for k := range h.workers {
		h.workers[k] = &Worker{ID: first + k, P: p, Graph: g, outbox: make([][]Msg, p)}
	}
	h.prog, h.comb = nil, nil
	h.runID = 0
	h.resetRun(-1, false)
}

// resetRun points the dedup cursor at lastStep and drops the cached
// reply.
func (h *Host) resetRun(lastStep int, finished bool) {
	h.lastStep = lastStep
	h.haveReply = false
	h.lastReply = StepReply{}
	h.finished = finished
}

// Init loads the graph and prepares the partition. Idempotent: a
// retried Init simply reloads.
func (h *Host) Init(args InitArgs, reply *InitReply) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	g, err := graph.LoadFile(args.GraphPath)
	if err != nil {
		return fmt.Errorf("worker %d: loading graph: %w", args.WorkerID, err)
	}
	h.hold(g, args.WorkerID, 1, args.NumWorkers)
	reply.NumVertices = g.NumVertices()
	return nil
}

// BeginRun installs the program for the next run.
func (h *Host) BeginRun(args BeginRunArgs, _ *struct{}) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.workers == nil {
		return errors.New("pregel: BeginRun before Init")
	}
	if args.RunID != 0 && args.RunID == h.runID && h.prog != nil {
		return nil // duplicate delivery of a run we already began
	}
	prog := args.prog
	if prog == nil {
		f, err := lookupRPC(args.Program)
		if err != nil {
			return err
		}
		if prog, err = f(h, args.Params); err != nil {
			return err
		}
	}
	h.prog, h.comb = prog, nil
	if cp, ok := prog.(CombinerProvider); ok {
		h.comb = cp.MessageCombiner()
	}
	h.runID = args.RunID
	h.resetRun(-1, false)
	return nil
}

// each runs fn for every partition the host holds, as parallel
// goroutines: the simulated cluster is P single-thread nodes, the
// paper's configuration, and the phase as a whole is what the step's
// row is charged.
func (h *Host) each(fn func(k int, w *Worker) error) error {
	errs := make([]error, len(h.workers))
	var wg sync.WaitGroup
	for k, w := range h.workers {
		wg.Add(1)
		go func(k int, w *Worker) {
			defer wg.Done()
			errs[k] = fn(k, w)
		}(k, w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Step runs one superstep on the partitions the host holds.
func (h *Host) Step(args StepArgs, reply *StepReply) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.prog == nil {
		return errors.New("pregel: Step before BeginRun")
	}
	if h.haveReply && args.Step == h.lastStep {
		// Duplicate delivery (the previous reply was lost or timed
		// out): replay the cached reply instead of recomputing. The
		// cached buffers are only read from here on, so sharing them
		// with a concurrent response encoder is safe.
		*reply = h.lastReply
		return nil
	}
	if args.Step != h.lastStep+1 {
		return fmt.Errorf("%s: got step %d, expected %d", outOfSyncMsg, args.Step, h.lastStep+1)
	}
	if len(args.Packets) != len(h.workers) {
		return fmt.Errorf("pregel: step %d: packets for %d partitions, host holds %d", args.Step, len(args.Packets), len(h.workers))
	}
	out := make([]WorkerReply, len(h.workers))
	phases := make(obs.Phases, 4)
	mark := time.Now()
	lap := func(phase string) {
		now := time.Now()
		phases[phase], mark = now.Sub(mark), now
	}

	// Decode. Every worker gets its own BcastIn slice header: the blobs
	// are shared (they are read-only by contract) but a program
	// reordering or clearing its own slice must not corrupt a
	// sibling's view.
	if err := h.each(func(k int, w *Worker) error {
		w.Inbox = w.Inbox[:0]
		for _, pk := range args.Packets[k] {
			var err error
			if w.Inbox, err = decodePacket(pk, w.Inbox); err != nil {
				// A corrupt packet is a protocol bug, not network
				// weather: surface it as a permanent application error.
				return fmt.Errorf("worker %d: step %d: %w", w.ID, args.Step, err)
			}
		}
		w.BcastIn = append(w.BcastIn[:0], args.Bcasts...)
		out[k].Worker, out[k].MsgsIn = w.ID, len(w.Inbox)
		return nil
	}); err != nil {
		return err
	}
	lap(PhaseDecode)

	if ps, ok := h.prog.(PreStepper); ok {
		if err := ps.PreStep(h.workers, args.Step); err != nil {
			return err
		}
	}
	lap(PhasePreStep)
	if err := h.each(func(k int, w *Worker) (err error) {
		start := time.Now()
		out[k].Active, err = h.prog.Superstep(w, args.Step)
		out[k].ComputeNanos = (phases[PhasePreStep] + time.Since(start)).Nanoseconds()
		return err
	}); err != nil {
		return err
	}
	lap(PhaseCompute)

	// Encode. Messages to the worker itself are serialized too — MPI
	// packs buffers even for self sends — and counted post-combining:
	// the metric is what actually crosses the wire. Fresh buffers, not
	// pooled: the reply is retained by the duplicate-delivery cache,
	// serialized asynchronously by net/rpc, and its packets may be
	// adopted by a master's checkpoint, so there is no safe recycle
	// point.
	if err := h.each(func(k int, w *Worker) error {
		out[k].Out = make([][]byte, w.P)
		for dst, msgs := range w.outbox {
			if len(msgs) == 0 {
				continue
			}
			buf, n, err := encodePacket(make([]byte, 0, 4*len(msgs)+8), msgs, h.comb)
			if err != nil {
				return fmt.Errorf("worker %d: step %d: encoding for worker %d: %w", w.ID, args.Step, dst, err)
			}
			out[k].Out[dst] = buf
			out[k].MsgsOut += int64(n)
			w.outbox[dst] = msgs[:0]
		}
		out[k].Bcasts, w.bcast = w.bcast, nil
		return nil
	}); err != nil {
		return err
	}
	lap(PhaseEncode)
	reply.Workers, reply.Phases = out, phases

	h.lastStep = args.Step
	h.lastReply = *reply
	h.haveReply = true
	h.stepCount++
	if h.stepHook != nil {
		h.stepHook(h.stepCount)
	}
	return nil
}

// FinishRun runs the program's Finish (final-superstep block) on every
// partition, the partitions in parallel as Step runs them: a Finish
// writes only its own partition's state. Idempotent per run.
func (h *Host) FinishRun(_ struct{}, _ *struct{}) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.prog == nil {
		return errors.New("pregel: FinishRun before BeginRun")
	}
	if h.finished {
		return nil
	}
	if err := h.each(func(_ int, w *Worker) error { return h.prog.Finish(w) }); err != nil {
		return err
	}
	h.finished = true
	return nil
}

// Collect encodes the final results of the host's partitions.
func (h *Host) Collect(_ struct{}, reply *CollectReply) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.prog.(Collector)
	if !ok {
		return errors.New("pregel: Collect without a finished run of a collecting program")
	}
	reply.Blobs = make([][]byte, len(h.workers))
	for k, w := range h.workers {
		var err error
		if reply.Blobs[k], err = c.Collect(w); err != nil {
			return err
		}
	}
	return nil
}

// ServeWorker listens on addr and serves the worker service until the
// listener fails. It returns the bound address through ready (useful
// with ":0") and blocks.
func ServeWorker(addr string, ready chan<- string, opts WorkerOptions) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName(RPCServiceName, &Host{stepHook: opts.StepHook}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go srv.ServeConn(conn)
	}
}
