package clock

import (
	"slices"
	"testing"
	"time"
)

// cleanups stands in for a test's cleanup list where a test runs it
// itself, mid-test.
type cleanups []func()

func (c *cleanups) Cleanup(f func()) { *c = append(*c, f) }

func (c cleanups) run() {
	for i := len(c) - 1; i >= 0; i-- {
		c[i]()
	}
}

// at is the tick a fake clock sends at virtual time d.
func at(d time.Duration) time.Time { return time.Unix(0, int64(d)) }

// recv receives one tick, failing after five seconds of real time.
func recv(t *testing.T, c <-chan time.Time) time.Time {
	t.Helper()
	select {
	case v := <-c:
		return v
	case <-time.After(5 * time.Second):
		t.Fatal("no tick arrived")
	}
	return time.Time{}
}

// await waits for done, failing after five seconds of real time.
func await(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never returned", what)
	}
}

// advance runs m.Advance(d) on its own goroutine and returns the
// channel it closes when Advance returns.
func advance(m *Manual, d time.Duration) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		m.Advance(d)
		close(done)
	}()
	return done
}

func TestTimersFireInDeadlineOrder(t *testing.T) {
	m := Fake(t)
	var cs [3]<-chan time.Time
	for i, d := range []time.Duration{3 * time.Second, time.Second, 2 * time.Second} {
		c, stop := NewTimer(d)
		defer stop()
		cs[i] = c
	}
	done := advance(m, 5*time.Second)
	var order []int
	var got []time.Time
	for range cs {
		var v time.Time
		select {
		case v = <-cs[0]:
			order = append(order, 0)
		case v = <-cs[1]:
			order = append(order, 1)
		case v = <-cs[2]:
			order = append(order, 2)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %v of three timers fired", order)
		}
		got = append(got, v)
	}
	await(t, done, "Advance")
	if want := []time.Time{at(time.Second), at(2 * time.Second), at(3 * time.Second)}; !slices.Equal(order, []int{1, 2, 0}) || !slices.Equal(got, want) {
		t.Errorf("timers fired in order %v at %v, want [1 2 0] at %v", order, got, want)
	}
	// A timer fires once: nothing is left for a later Advance to wait on.
	await(t, advance(m, time.Hour), "Advance past fired timers")
}

func TestStoppedNeverFiresNorBlocks(t *testing.T) {
	m := Fake(t)
	tc, stopTimer := NewTimer(time.Second)
	kc, stopTicker := NewTicker(time.Second)
	stopTimer()
	stopTicker()
	stopTicker() // a second stop is harmless
	await(t, advance(m, time.Minute), "Advance over stopped timers")
	select {
	case <-tc:
		t.Error("a stopped timer fired")
	case <-kc:
		t.Error("a stopped ticker fired")
	default:
	}
	// A ticker stopped while Advance waits to hand it a tick releases it.
	c, stop := NewTicker(time.Second)
	done := advance(m, time.Minute)
	recv(t, c)
	stop()
	await(t, done, "Advance over a ticker stopped mid-way")
}

func TestAdvanceWaitsForEveryTick(t *testing.T) {
	m := Fake(t)
	c, stop := NewTicker(time.Second)
	defer stop()
	done := advance(m, 3*time.Second+time.Millisecond)
	for i := time.Duration(1); i <= 3; i++ {
		select {
		case <-done:
			t.Fatalf("Advance returned before tick %d was received", i)
		default:
		}
		if got := recv(t, c); !got.Equal(at(i * time.Second)) {
			t.Errorf("tick %d at %v, want %v", i, got, at(i*time.Second))
		}
	}
	await(t, done, "Advance")
	// The next tick is at 4 s: at 3.999 s nothing is due and Advance returns.
	await(t, advance(m, 998*time.Millisecond), "Advance short of a tick")
	done = advance(m, time.Millisecond)
	if got := recv(t, c); !got.Equal(at(4 * time.Second)) {
		t.Errorf("fourth tick at %v, want %v", got, at(4*time.Second))
	}
	await(t, done, "Advance")
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	m := Fake(t)
	c, stop := NewTimer(time.Hour)
	defer stop()
	done := make(chan struct{})
	go func() {
		Sleep(time.Hour)
		close(done)
	}()
	if got := recv(t, c); !got.Equal(at(time.Hour)) {
		t.Errorf("the timer fired at %v, want %v", got, at(time.Hour))
	}
	await(t, done, "Sleep")
	Sleep(time.Hour) // nothing due: returns at once
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.now != 2*time.Hour {
		t.Errorf("virtual time %v after two one-hour sleeps", m.now)
	}
}

func TestFakeIsOneAtATime(t *testing.T) {
	var first cleanups
	Fake(&first)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second Fake did not panic")
			}
		}()
		var second cleanups
		Fake(&second)
		second.run()
	}()
	c, stop := NewTimer(time.Millisecond) // the fake's: never fires by itself
	defer stop()
	first.run()
	select {
	case <-c:
		t.Error("a fake timer fired with no Advance")
	case <-time.After(20 * time.Millisecond):
	}
	// The wall clock is back: its timers fire by themselves, and a new
	// fake can be installed.
	wall, stopWall := NewTimer(time.Millisecond)
	defer stopWall()
	recv(t, wall)
	var again cleanups
	Fake(&again)
	again.run()
}
