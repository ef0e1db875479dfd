// Package qcache is a sharded, lock-free, fixed-size cache for
// reachability query answers, sitting in front of the query server's
// merge kernel. It exists because serving traffic is heavily skewed —
// a zipfian population keeps re-asking the same hot (s, t) pairs — and
// because the index is immutable once frozen, so a cached answer can
// never go stale and the cache needs no invalidation path at all (see
// DESIGN.md §10).
//
// The structure is a power-of-two array of power-of-two shards, each
// shard a direct-mapped array of 64-bit slots. A slot packs the whole
// entry — source, target, answer, and an occupancy bit — into one
// uint64 that is read and written with a single atomic operation, so
// a reader can never observe a half-written (pair, answer) binding:
// it sees the old entry, the new entry, or empty. Collisions simply
// overwrite (direct-mapped, no chains, no eviction bookkeeping), which
// bounds memory exactly and keeps both paths to a handful of
// instructions. The cache counts nothing: its one caller tallies hits
// and misses per request.
package qcache

import (
	"math/bits"
	"sync/atomic"
)

// Slot packing: bit 0 = occupied, bit 1 = answer, bits 2..32 = target,
// bits 33..63 = source. VertexIDs are int32 and non-negative, so 31
// bits per vertex suffice and the occupied bit keeps every live entry
// nonzero (an all-zero word always means "empty slot").
const (
	occupiedBit = 1 << 0
	answerBit   = 1 << 1
	targetShift = 2
	sourceShift = 33
	vertexMask  = 1<<31 - 1
)

func pack(s, t int32, reachable bool) uint64 {
	w := uint64(s)<<sourceShift | uint64(t)<<targetShift | occupiedBit
	if reachable {
		w |= answerBit
	}
	return w
}

// hash mixes the packed pair (without the answer bits) into a
// well-distributed 64-bit value — splitmix64's finalizer, chosen so
// that the shard index (top bits) and slot index (low bits) of
// neighboring vertex pairs land far apart.
func hash(s, t int32) uint64 {
	z := uint64(s)<<32 | uint64(uint32(t))
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Cache is a sharded hot-pair cache. The zero value is not usable;
// call New. A nil *Cache is a valid no-op: Get always misses and Put
// does nothing, so call sites need no cache-enabled branches.
type Cache struct {
	shards    []shard
	shardMask uint64
	slotMask  uint64
}

type shard struct {
	slots []atomic.Uint64
}

// New returns a cache holding about capacity entries across nShards
// shards. Both values are rounded up to powers of two; capacity is at
// least one slot per shard. New(0, n) and a nil cache both disable
// caching.
func New(capacity, nShards int) *Cache {
	if capacity <= 0 {
		return nil
	}
	if nShards < 1 {
		nShards = 1
	}
	nShards = ceilPow2(nShards)
	perShard := ceilPow2((capacity + nShards - 1) / nShards)
	c := &Cache{
		shards:    make([]shard, nShards),
		shardMask: uint64(nShards - 1),
		slotMask:  uint64(perShard - 1),
	}
	for i := range c.shards {
		c.shards[i].slots = make([]atomic.Uint64, perShard)
	}
	return c
}

func ceilPow2(v int) int {
	if v <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(v-1))
}

// slot locates the one slot the pair may live in: top hash bits pick
// the shard, low bits the slot within it.
func (c *Cache) slot(s, t int32) *atomic.Uint64 {
	h := hash(s, t)
	sh := &c.shards[(h>>32)&c.shardMask]
	return &sh.slots[h&c.slotMask]
}

// Get returns the cached answer for (s, t) and whether one was
// present.
func (c *Cache) Get(s, t int32) (reachable, ok bool) {
	if c == nil {
		return false, false
	}
	w := c.slot(s, t).Load()
	if w&occupiedBit == 0 || (w>>sourceShift)&vertexMask != uint64(s) || (w>>targetShift)&vertexMask != uint64(t) {
		return false, false
	}
	return w&answerBit != 0, true
}

// Put records the answer for (s, t), overwriting whatever pair shared
// the slot. Answers are immutable per pair (the index never changes),
// so racing Puts for the same pair write the same word.
func (c *Cache) Put(s, t int32, reachable bool) {
	if c == nil {
		return
	}
	c.slot(s, t).Store(pack(s, t, reachable))
}

// Capacity returns the total number of slots (0 for a nil cache).
func (c *Cache) Capacity() int {
	if c == nil {
		return 0
	}
	return len(c.shards) * int(c.slotMask+1)
}

// Shards returns the shard count (0 for a nil cache).
func (c *Cache) Shards() int {
	if c == nil {
		return 0
	}
	return len(c.shards)
}
