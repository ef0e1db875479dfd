package pregel

import (
	"errors"
	"fmt"
	"net/rpc"
	"strings"
)

// Transport abstracts one master↔host connection so the retry,
// fault-injection, and checkpoint machinery is independent of the
// wire protocol. The implementations are net/rpc over TCP (*rpc.Client
// satisfies the interface directly) and Direct, a method call on a
// host in the same process; tests decorate either.
type Transport interface {
	// Call performs one synchronous RPC. serviceMethod is the full
	// "Service.Method" name as in net/rpc.
	Call(serviceMethod string, args any, reply any) error
	Close() error
}

// Dialer opens a Transport to a worker address. The master re-invokes
// it during crash recovery, so implementations must tolerate being
// called for an address that already had a (now dead) connection.
type Dialer func(addr string) (Transport, error)

// DialRPC is the default Dialer: net/rpc over TCP.
func DialRPC(addr string) (Transport, error) {
	return rpc.Dial("tcp", addr)
}

// Direct is the Transport to a host in the master's own process: the
// call is a method call — no gob, no connection, no goroutine. What the
// host's handler returns comes back wrapped as a handlerError, the
// direct counterpart of rpc.ServerError.
type Direct struct{ Host *Host }

// handlerError marks an error as raised by a host's handler, not by
// the transport: permanent, like rpc.ServerError, but keeping the
// cause for errors.Is (a program's context.Canceled must stay
// recognizable).
type handlerError struct{ error }

func (e handlerError) Unwrap() error { return e.error }

// Call dispatches serviceMethod on the host. args and reply have the
// types the method declares; anything else is a caller bug and panics
// in the type assertion.
func (d Direct) Call(serviceMethod string, args any, reply any) error {
	var err error
	switch h := d.Host; strings.TrimPrefix(serviceMethod, RPCServiceName+".") {
	case "Init":
		err = h.Init(args.(InitArgs), reply.(*InitReply))
	case "BeginRun":
		err = h.BeginRun(args.(BeginRunArgs), nil)
	case "Step":
		err = h.Step(args.(StepArgs), reply.(*StepReply))
	case "FinishRun":
		err = h.FinishRun(struct{}{}, nil)
	case "Collect":
		err = h.Collect(struct{}{}, reply.(*CollectReply))
	case "Checkpoint":
		err = h.Checkpoint(struct{}{}, reply.(*CheckpointReply))
	case "Restore":
		err = h.Restore(args.(RestoreArgs), nil)
	default:
		err = fmt.Errorf("pregel: no method %q", serviceMethod)
	}
	if err != nil {
		return handlerError{err}
	}
	return nil
}

// Close is a no-op: the host lives as long as its process.
func (d Direct) Close() error { return nil }

// Sentinel errors for the fault-handling paths. Callers match them
// with errors.Is.
var (
	// ErrCallTimeout marks a per-attempt deadline expiry.
	ErrCallTimeout = errors.New("pregel: call timed out")
	// ErrRetriesExhausted wraps the last transient error after every
	// retry attempt failed.
	ErrRetriesExhausted = errors.New("pregel: retries exhausted")
	// ErrNoRecovery is returned when a worker failed permanently but
	// the run cannot be recovered (no checkpoint, or the program does
	// not implement Snapshotter).
	ErrNoRecovery = errors.New("pregel: worker failed and no recovery is possible")
)

// outOfSyncMsg prefixes host-side errors that signal master/host
// superstep disagreement. net/rpc flattens errors to strings, so the
// master matches the prefix; such errors trigger checkpoint recovery
// rather than plain retries.
const outOfSyncMsg = "pregel: worker out of sync"

func isOutOfSync(err error) bool {
	return err != nil && strings.Contains(err.Error(), outOfSyncMsg)
}

// isTransient reports whether a call's error is worth retrying on the
// same connection: timeouts, dropped or injected failures, and
// transport breakage. Errors produced by the host's handler arrive as
// rpc.ServerError (or handlerError over Direct) and are permanent —
// they signify a program or protocol bug, not network weather
// (out-of-sync errors are handled separately via recovery).
func isTransient(err error) bool {
	var se rpc.ServerError
	var he handlerError
	return !errors.As(err, &se) && !errors.As(err, &he)
}

// workerFailure marks an error as recoverable by re-dialing the named
// workers and restoring the last checkpoint.
type workerFailure struct {
	workers []int
	err     error
}

func (e *workerFailure) Error() string {
	return fmt.Sprintf("pregel: worker(s) %v failed: %v", e.workers, e.err)
}

func (e *workerFailure) Unwrap() error { return e.err }

// mergeFailures folds per-worker errors into a single error: the
// first permanent (application) error wins; otherwise all recoverable
// failures are merged into one workerFailure.
func mergeFailures(errs []error) error {
	var merged *workerFailure
	for _, err := range errs {
		if err == nil {
			continue
		}
		var wf *workerFailure
		if !errors.As(err, &wf) {
			return err
		}
		if merged == nil {
			merged = &workerFailure{err: wf.err}
		}
		merged.workers = append(merged.workers, wf.workers...)
	}
	if merged == nil {
		return nil
	}
	return merged
}
