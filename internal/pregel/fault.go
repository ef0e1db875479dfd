package pregel

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// FaultTransport decorates an inner Transport with deterministic,
// seeded failures: call drops (the request never reaches the worker),
// lost replies (the call executes but the response is discarded), and
// a one-shot crash after which every call fails until the master
// re-dials. It is the test double for real network weather — the
// master cannot tell an injected fault from a genuine one.
type FaultTransport struct {
	inner Transport
	plan  FaultPlan

	mu      sync.Mutex
	rng     *rand.Rand
	calls   int
	crashed bool
	stats   FaultStats
}

// FaultPlan configures a FaultTransport. All probabilities are per
// call and drawn from a rand.Rand seeded with Seed, so a fixed plan
// yields a fixed per-connection fault schedule.
type FaultPlan struct {
	Seed int64
	// DropProb drops the call before it reaches the worker.
	DropProb float64
	// LostReplyProb lets the call execute on the worker but discards
	// the reply — the dangerous half of at-most-once delivery.
	LostReplyProb float64
	// CrashAtCall, when positive, fails every call from the Nth
	// onwards (1-based) as if the worker process died. One-shot: a
	// fresh transport from the Dialer is healthy again.
	CrashAtCall int
}

// FaultStats counts the faults a FaultTransport injected.
type FaultStats struct {
	Calls       int
	Drops       int
	LostReplies int
	Crashes     int
}

// Injected fault sentinels, matched with errors.Is. Both classify as
// transient on the master side (they are not rpc.ServerError).
var (
	ErrInjectedDrop  = errors.New("pregel: injected fault: call dropped")
	ErrInjectedCrash = errors.New("pregel: injected fault: worker crashed")
)

// NewFaultTransport wraps inner with the given plan.
func NewFaultTransport(inner Transport, plan FaultPlan) *FaultTransport {
	return &FaultTransport{
		inner: inner,
		plan:  plan,
		rng:   rand.New(rand.NewSource(plan.Seed)),
	}
}

// Call injects the planned faults around inner.Call. Exactly two
// random draws happen per call regardless of outcome, so the fault
// schedule depends only on the call sequence, not on which faults
// fired earlier.
func (t *FaultTransport) Call(serviceMethod string, args any, reply any) error {
	t.mu.Lock()
	if t.crashed {
		t.mu.Unlock()
		return fmt.Errorf("%s: %w", serviceMethod, ErrInjectedCrash)
	}
	t.calls++
	t.stats.Calls++
	call := t.calls
	drop := t.rng.Float64() < t.plan.DropProb
	lost := t.rng.Float64() < t.plan.LostReplyProb
	if t.plan.CrashAtCall > 0 && call >= t.plan.CrashAtCall {
		t.crashed = true
		t.stats.Crashes++
		t.mu.Unlock()
		return fmt.Errorf("%s (call %d): %w", serviceMethod, call, ErrInjectedCrash)
	}
	if drop {
		t.stats.Drops++
	} else if lost {
		t.stats.LostReplies++
	}
	t.mu.Unlock()

	if drop {
		return fmt.Errorf("%s (call %d): %w", serviceMethod, call, ErrInjectedDrop)
	}
	err := t.inner.Call(serviceMethod, args, reply)
	if err == nil && lost {
		return fmt.Errorf("%s (call %d): reply lost: %w", serviceMethod, call, ErrInjectedDrop)
	}
	return err
}

// Close closes the inner transport.
func (t *FaultTransport) Close() error { return t.inner.Close() }

// Stats returns a snapshot of the injected-fault counters.
func (t *FaultTransport) Stats() FaultStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}
