package qcache

import (
	"math/rand"
	"sync"
	"testing"
)

func TestBasicPutGet(t *testing.T) {
	c := New(1024, 8)
	if _, ok := c.Get(3, 17); ok {
		t.Fatal("empty cache must miss")
	}
	c.Put(3, 17, true)
	c.Put(5, 9, false)
	if r, ok := c.Get(3, 17); !ok || !r {
		t.Fatalf("Get(3,17) = %v,%v after Put(true)", r, ok)
	}
	if r, ok := c.Get(5, 9); !ok || r {
		t.Fatalf("Get(5,9) = %v,%v after Put(false)", r, ok)
	}
	// (t, s) is a different pair than (s, t).
	if _, ok := c.Get(17, 3); ok {
		t.Fatal("reversed pair must not hit")
	}
}

func TestZeroPairDistinctFromEmpty(t *testing.T) {
	c := New(64, 1)
	if _, ok := c.Get(0, 0); ok {
		t.Fatal("(0,0) must miss in an empty cache")
	}
	c.Put(0, 0, false)
	if r, ok := c.Get(0, 0); !ok || r {
		t.Fatalf("Get(0,0) = %v,%v after Put(false)", r, ok)
	}
}

func TestRounding(t *testing.T) {
	c := New(1000, 7)
	if c.Shards() != 8 {
		t.Errorf("Shards() = %d, want 8", c.Shards())
	}
	if c.Capacity() != 8*128 {
		t.Errorf("Capacity() = %d, want %d (7 shards→8, 125/shard→128)", c.Capacity(), 8*128)
	}
	if New(0, 4) != nil {
		t.Error("New(0, …) must return the nil no-op cache")
	}
}

func TestNilCacheIsNoop(t *testing.T) {
	var c *Cache
	c.Put(1, 2, true)
	if _, ok := c.Get(1, 2); ok {
		t.Error("nil cache must always miss")
	}
	if c.Capacity() != 0 || c.Shards() != 0 {
		t.Error("nil cache geometry must read zero")
	}
}

// TestNoWrongAnswers: under collisions (tiny cache, huge key space) a
// Get may miss, but a hit must always return the answer that was Put
// for exactly that pair. Answers are derived from the pair so any
// cross-pair contamination is detectable.
func TestNoWrongAnswers(t *testing.T) {
	c := New(256, 4)
	answer := func(s, u int32) bool { return (s^u)&1 == 0 }
	rng := rand.New(rand.NewSource(1))
	hits := 0
	for i := 0; i < 100000; i++ {
		s, u := rng.Int31n(1<<20), rng.Int31n(1<<20)
		if r, ok := c.Get(s, u); ok && r != answer(s, u) {
			t.Fatalf("Get(%d,%d) returned %v, Put stored %v", s, u, r, answer(s, u))
		}
		c.Put(s, u, answer(s, u))
		r, ok := c.Get(s, u)
		if ok && r != answer(s, u) {
			t.Fatalf("read-back Get(%d,%d) = %v, want %v", s, u, r, answer(s, u))
		}
		if ok {
			hits++
		}
	}
	if hits == 0 {
		t.Error("expected some hits over 100k skewed lookups")
	}
}

// TestConcurrent hammers one cache from many goroutines (run under
// -race by make check). Correctness bar: hits never return a wrong
// answer.
func TestConcurrent(t *testing.T) {
	c := New(4096, 16)
	answer := func(s, u int32) bool { return (3*s+u)%7 == 0 }
	const workers, each = 8, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < each; i++ {
				s, u := rng.Int31n(2000), rng.Int31n(2000)
				if r, ok := c.Get(s, u); ok && r != answer(s, u) {
					t.Errorf("Get(%d,%d) = %v, want %v", s, u, r, answer(s, u))
					return
				}
				c.Put(s, u, answer(s, u))
			}
		}(int64(w))
	}
	wg.Wait()
}
