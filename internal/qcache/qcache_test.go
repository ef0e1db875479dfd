package qcache

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
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
	for _, tc := range []struct{ capacity, slots int }{{1, 1}, {2, 2}, {3, 4}, {1000, 1024}, {1 << 20, 1 << 20}} {
		if got := New(tc.capacity, 7).Capacity(); got != tc.slots {
			t.Errorf("New(%d, 7).Capacity() = %d, want %d", tc.capacity, got, tc.slots)
		}
	}
	if New(0, 4) != nil {
		t.Error("New(0, …) must return the nil no-op cache")
	}
}

// TestTableBytes pins what the handler's default cache (and each epoch
// swap) allocates: 2^20 slots of 4 bytes.
func TestTableBytes(t *testing.T) {
	c := New(1<<20, 64)
	if got := len(c.slots) * int(unsafe.Sizeof(c.slots[0])); got != 4_194_304 {
		t.Errorf("2^20-slot table holds %d B, want 4,194,304", got)
	}
}

func TestNilCacheIsNoop(t *testing.T) {
	var c *Cache
	c.Put(1, 2, true)
	if _, ok := c.Get(1, 2); ok {
		t.Error("nil cache must always miss")
	}
	if c.Capacity() != 0 {
		t.Error("nil cache geometry must read zero")
	}
}

// TestOutOfRangeNeverAliases: a pair with a negative ID or an ID of
// 2^k or more is never stored, so it can neither hit nor take the slot
// of a pair that is. A sign-extended -1 once filled the whole source
// field, so Put(-1, 5) made Get(2147483647, 5) hit on a one-slot cache.
func TestOutOfRangeNeverAliases(t *testing.T) {
	for _, capacity := range []int{1, 64, 1 << 20} {
		c := New(capacity, 1)
		k := c.k
		top := int32(1<<k - 1)
		c.Put(0, 0, true)
		c.Put(-1, 5, true)
		c.Put(5, -1, true)
		c.Put(math.MinInt32, 0, true)
		for _, p := range [][2]int32{{-1, 5}, {5, -1}, {math.MinInt32, 0}, {math.MaxInt32, 5}, {5, math.MaxInt32}, {-1, -1}} {
			if _, ok := c.Get(p[0], p[1]); ok {
				t.Errorf("capacity %d: Get(%d, %d) hit", capacity, p[0], p[1])
			}
		}
		if r, ok := c.Get(0, 0); !ok || !r {
			t.Errorf("capacity %d: out-of-range Puts disturbed (0, 0): %v,%v", capacity, r, ok)
		}
		for _, p := range [][2]int32{{top, 0}, {0, top}, {top, top}} {
			c.Put(p[0], p[1], true)
			if r, ok := c.Get(p[0], p[1]); !ok || !r {
				t.Errorf("capacity %d (k = %d): Get(%d, %d) = %v,%v after Put(true)", capacity, k, p[0], p[1], r, ok)
			}
		}
		for _, p := range [][2]int32{{top + 1, 0}, {0, top + 1}, {top + 1, top + 1}} {
			c.Put(p[0], p[1], true)
			if _, ok := c.Get(p[0], p[1]); ok {
				t.Errorf("capacity %d (k = %d): Get(%d, %d) hit", capacity, k, p[0], p[1])
			}
		}
	}
	if k := geometryOf(20).k; k != 25 {
		t.Errorf("k = %d at 2^20 slots, want 25", k)
	}
}

// inverse is the multiplicative inverse of an odd a mod 2^64: each
// Newton step doubles the correct low bits, from the 3 of a itself.
func inverse(a uint64) uint64 {
	x := a
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}

// unmix undoes mix step by step in reverse order.
func unmix(x uint64, k uint) uint64 {
	m := uint64(1)<<(2*k) - 1
	x ^= x >> k
	x = x * inverse(mul2) & m
	x ^= x >> k
	x = x * inverse(mul1) & m
	x ^= x >> k
	return x
}

// unlocate decodes a slot index and the quotient stored there back to
// the one pair they name.
func unlocate(slotBits uint, slot uint64, quot uint32) (s, t int32) {
	k := geometryOf(slotBits).k
	key := unmix(uint64(quot)<<slotBits|slot, k)
	return int32(key >> k), int32(key & (1<<k - 1))
}

// TestMixInverts: at every table size from 2^0 to 2^31 slots, (slot,
// quotient) decodes back to the pair, the slot is in the table and the
// quotient fits its 30 bits; and at narrowed key widths the mix is a
// permutation of every key.
func TestMixInverts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for slotBits := uint(0); slotBits <= 31; slotBits++ {
		k := geometryOf(slotBits).k
		top := int32(1<<k - 1)
		pairs := [][2]int32{{0, 0}, {top, top}, {top, 0}, {0, top}}
		for i := 0; i < 2000; i++ {
			pairs = append(pairs, [2]int32{rng.Int31n(top + 1), rng.Int31n(top + 1)})
		}
		for _, p := range pairs {
			slot, quot, ok := geometryOf(slotBits).locate(p[0], p[1])
			if !ok {
				t.Fatalf("2^%d slots: (%d, %d) refused", slotBits, p[0], p[1])
			}
			if slot>>slotBits != 0 || quot>>quotBits != 0 {
				t.Fatalf("2^%d slots: (%d, %d) → slot %d, quotient %#x out of range", slotBits, p[0], p[1], slot, quot)
			}
			if s, u := unlocate(slotBits, slot, quot); s != p[0] || u != p[1] {
				t.Fatalf("2^%d slots: (%d, %d) decodes to (%d, %d)", slotBits, p[0], p[1], s, u)
			}
		}
	}
	for k := uint(1); k <= 10; k++ {
		seen := make([]bool, 1<<(2*k))
		for x := uint64(0); x < 1<<(2*k); x++ {
			y := mix(x, k, 1<<(2*k)-1)
			if y>>(2*k) != 0 || seen[y] {
				t.Fatalf("k = %d: mix(%#x) = %#x is out of range or taken twice", k, x, y)
			}
			seen[y] = true
			if unmix(y, k) != x {
				t.Fatalf("k = %d: unmix(mix(%#x)) = %#x", k, x, unmix(y, k))
			}
		}
	}
}

// TestNoWrongAnswers: under collisions (small tables, IDs spread over
// the whole non-negative int32 range) a Get may miss, but a hit must
// return exactly the answer last Put for that pair, which the map
// oracle holds.
func TestNoWrongAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Log-uniform IDs: every magnitude up to 2^31-1 is as likely, so
	// both sides of each table's keyable range are drawn.
	id := func() int32 { return rng.Int31() >> rng.Intn(31) }
	for _, capacity := range []int{1, 256, 1 << 20} {
		c := New(capacity, 1)
		oracle := map[[2]int32]bool{}
		pool := make([][2]int32, 4096)
		for i := range pool {
			pool[i] = [2]int32{id(), id()}
		}
		hits := 0
		for i := 0; i < 100000; i++ {
			p := pool[rng.Intn(len(pool))]
			if r, ok := c.Get(p[0], p[1]); ok {
				want, put := oracle[p]
				if !put || r != want {
					t.Fatalf("capacity %d: Get(%d, %d) = %v, oracle %v (put %v)", capacity, p[0], p[1], r, want, put)
				}
				hits++
			}
			ans := rng.Intn(2) == 0
			c.Put(p[0], p[1], ans)
			oracle[p] = ans
		}
		if hits == 0 {
			t.Errorf("capacity %d: no hits over 100k lookups of a 4,096-pair pool", capacity)
		}
	}
}

// zipfPairs draws count pairs over n vertices with both endpoints
// zipf-distributed at drload's default skew, 1.1.
func zipfPairs(seed int64, n, count int) [][2]int32 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	pairs := make([][2]int32, count)
	for i := range pairs {
		pairs[i] = [2]int32{int32(z.Uint64()), int32(z.Uint64())}
	}
	return pairs
}

// TestZipfHitRate replays a fixed zipf stream through a 2^16-slot
// cache, Get then Put on a miss as the handler does. A mix that lets
// few key bits reach the slot index collides far more often; the rate
// is pinned to what the 64-bit-slot cache this table replaced measured
// on the same stream, 0.3525.
func TestZipfHitRate(t *testing.T) {
	c := New(1<<16, 1)
	pairs := zipfPairs(1, 200_000, 1<<20)
	hits := 0
	for _, p := range pairs {
		if _, ok := c.Get(p[0], p[1]); ok {
			hits++
		} else {
			c.Put(p[0], p[1], true)
		}
	}
	const want = 0.3525
	if rate := float64(hits) / float64(len(pairs)); math.Abs(rate-want) > 0.01 {
		t.Errorf("hit rate %.4f, want %.4f ± 0.01", rate, want)
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
