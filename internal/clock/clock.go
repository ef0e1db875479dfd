// Package clock is the time source of every loop a test drives: the
// master's backoff and call deadline, the refresher's tick, the probe.
package clock

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

var fake atomic.Pointer[Manual]

// Sleep pauses for d; under a fake it advances virtual time by d.
func Sleep(d time.Duration) {
	if m := fake.Load(); m != nil {
		m.Advance(d)
		return
	}
	time.Sleep(d)
}

// NewTimer returns a channel that receives once, d from now, and its stop.
func NewTimer(d time.Duration) (<-chan time.Time, func()) {
	if m := fake.Load(); m != nil {
		return m.add(d, 0)
	}
	t := time.NewTimer(d)
	return t.C, func() { t.Stop() }
}

// NewTicker returns a channel that receives every d, and its stop.
func NewTicker(d time.Duration) (<-chan time.Time, func()) {
	if m := fake.Load(); m != nil {
		return m.add(d, d)
	}
	t := time.NewTicker(d)
	return t.C, t.Stop
}

// Manual is a clock that only Advance, or Sleep under Fake, moves.
type Manual struct {
	mu    sync.Mutex
	now   time.Duration // virtual time since Fake
	waits []*wait       // the timers and tickers still to fire
}

type wait struct {
	at, period time.Duration  // period 0: a timer
	c, stopped chan time.Time // the stop function closes stopped
}

// Fake installs a process-wide Manual clock until tb's cleanup; a second panics.
func Fake(tb interface{ Cleanup(func()) }) *Manual {
	m := &Manual{}
	if !fake.CompareAndSwap(nil, m) {
		panic("clock: a fake clock is already installed")
	}
	tb.Cleanup(func() { fake.Store(nil) })
	return m
}

func (m *Manual) add(d, period time.Duration) (<-chan time.Time, func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &wait{m.now + d, period, make(chan time.Time), make(chan time.Time)}
	m.waits = append(m.waits, w)
	return w.c, sync.OnceFunc(func() {
		m.mu.Lock()
		m.waits = slices.DeleteFunc(m.waits, func(x *wait) bool { return x == w })
		m.mu.Unlock()
		close(w.stopped)
	})
}

// Advance moves virtual time by d, firing what comes due in deadline
// order, and returns once each tick is received or its sender stopped.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	end := m.now + d
	for len(m.waits) > 0 {
		w := slices.MinFunc(m.waits, func(a, b *wait) int { return int(a.at - b.at) })
		if w.at > end {
			break
		}
		at := w.at
		m.now, w.at = at, at+w.period
		if w.period == 0 {
			m.waits = slices.DeleteFunc(m.waits, func(x *wait) bool { return x == w })
		}
		m.mu.Unlock()
		select {
		case w.c <- time.Unix(0, int64(at)):
		case <-w.stopped:
		}
		m.mu.Lock()
	}
	m.now = max(m.now, end)
}
