package pregel

import (
	"errors"
	"fmt"
)

// Superstep checkpointing. The BSP barrier is the natural consistency
// point: at a barrier every outbox has been drained into the master's
// routing state and every inbox has been consumed, so a worker's
// recoverable state is exactly its program state (Worker.State plus
// the program's replicated shared state). The master snapshots that
// state at run boundaries and every CheckpointEvery supersteps, and
// keeps the blobs plus its own routing state (pending packets and
// broadcasts) in memory. On a worker failure it re-dials, re-Inits,
// re-BeginRuns the replacement, restores every worker from the last
// checkpoint, and rewinds the superstep loop to the checkpoint
// barrier — delivery is replayed identically, so the index the job
// produces is bit-for-bit the one an undisturbed run produces.

// Snapshotter is an optional Program extension that enables superstep
// checkpointing on a cluster. Programs that do not implement it still
// get per-call retries, but a crashed worker aborts the run.
type Snapshotter interface {
	// EncodeState serializes every piece of recoverable state: the
	// persistent section first (state that survives runs, e.g.
	// accumulated batch labels), then the per-run section (visit
	// status, replicated broadcast state).
	EncodeState(w *Worker) ([]byte, error)
	// DecodeState rebuilds state from an EncodeState blob, replacing —
	// not merging with — whatever the program currently holds. A blob
	// taken at a previous run's boundary is restored onto the next
	// run's fresh program, which then starts again at step 0: its per-run
	// section comes back too, so step 0 (and PreStep at step 0) must set
	// the per-run state anew rather than assume it empty.
	DecodeState(w *Worker, blob []byte) error
}

// CheckpointReply carries the state snapshots of a host's partitions.
// Supported is false when the running program does not implement
// Snapshotter; the master then disables checkpointing for the job
// instead of failing.
type CheckpointReply struct {
	Supported bool
	Blobs     [][]byte
}

// RestoreArgs rewinds a host to a checkpointed barrier. Step is the
// next superstep the master will issue (so the host's dedup cursor
// becomes Step-1), 0 for a restore at a run's boundary; Finished
// restores the post-FinishRun state used when recovering during
// Collect.
type RestoreArgs struct {
	Blobs    [][]byte
	Step     int
	Finished bool
}

// Checkpoint encodes the recoverable state of the host's partitions at
// the current barrier. Read-only, hence naturally idempotent under
// retry.
func (h *Host) Checkpoint(_ struct{}, reply *CheckpointReply) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.prog == nil {
		return errors.New("pregel: Checkpoint before BeginRun")
	}
	snap, ok := h.prog.(Snapshotter)
	if !ok {
		return nil
	}
	reply.Supported = true
	reply.Blobs = make([][]byte, len(h.workers))
	for k, w := range h.workers {
		var err error
		if reply.Blobs[k], err = snap.EncodeState(w); err != nil {
			return err
		}
	}
	return nil
}

// Restore rewinds the host to a checkpointed barrier. Idempotent: it
// installs absolute state, so a retried Restore lands in the same
// place. Before BeginRun there is no program, so no Snapshotter.
func (h *Host) Restore(args RestoreArgs, _ *struct{}) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	snap, ok := h.prog.(Snapshotter)
	if !ok {
		return errors.New("pregel: no running program that supports checkpointing")
	}
	if len(args.Blobs) != len(h.workers) {
		return fmt.Errorf("pregel: restoring %d partitions onto a host of %d", len(args.Blobs), len(h.workers))
	}
	for k, w := range h.workers {
		if err := snap.DecodeState(w, args.Blobs[k]); err != nil {
			return err
		}
	}
	h.resetRun(args.Step-1, args.Finished)
	return nil
}
