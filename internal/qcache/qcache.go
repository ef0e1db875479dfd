// Package qcache is a lock-free, fixed-size cache for reachability
// query answers, sitting in front of the query server's merge kernel.
// It exists because serving traffic is heavily skewed — a zipfian
// population keeps re-asking the same hot (s, t) pairs — and because
// the index is immutable once frozen, so a cached answer can never go
// stale and the cache needs no invalidation path at all (see DESIGN.md
// §8).
//
// The structure is one power-of-two table of 32-bit slots, direct
// mapped. A pair whose IDs are both below 2^k (k = min(31, ⌊(30 +
// log₂ slots)/2⌋): 25 at 2^20 slots) forms a 2k-bit key; an invertible
// mix turns the key into a 2k-bit word whose low bits address the slot
// and whose high bits — the quotient, at most 30 of them — are what
// the slot stores, beside the answer and an occupancy bit. The address
// and the quotient together name exactly one pair, so every hit is
// exact. A pair outside that range, negative IDs included, is never
// stored and always misses.
//
// A slot is read and written with a single atomic operation, so a
// reader can never observe a half-written (pair, answer) binding: it
// sees the old entry, the new entry, or empty. Collisions simply
// overwrite (no chains, no eviction bookkeeping), which bounds memory
// exactly — 4 bytes a slot — and keeps both paths to a handful of
// instructions. The cache counts nothing: its one caller tallies hits
// and misses per request.
package qcache

import (
	"math/bits"
	"sync/atomic"
)

// Slot packing: bit 0 = occupied, bit 1 = answer, bits 2..31 = the
// quotient. The occupied bit keeps every live entry nonzero (an
// all-zero word always means "empty slot").
const (
	occupiedBit = 1 << 0
	answerBit   = 1 << 1
	quotShift   = 2
	quotBits    = 32 - quotShift
)

// The mix's two odd multipliers, MurmurHash3's fmix64 constants; only
// their low 2k bits take part.
const (
	mul1 = 0xff51afd7ed558ccd
	mul2 = 0xc4ceb9fe1a85ec53
)

// mix is a bijection on 2k-bit words (keyMask = 2^2k − 1): xor-shifts
// by k, which are their own inverses at this width, around two
// multiplications by odd constants mod 2^2k. The first shift folds the
// source into the target's half, the multiplications carry low bits
// upward and the shifts carry high bits down, so the low (address) bits
// depend on every key bit.
func mix(x uint64, k uint, keyMask uint64) uint64 {
	x ^= x >> k
	x = x * mul1 & keyMask
	x ^= x >> k
	x = x * mul2 & keyMask
	x ^= x >> k
	return x
}

// geometry is what a table's size fixes: its slot index width, the key
// width k per endpoint and the two masks. It is worked out once per
// table, so Get and Put do not derive it per call.
type geometry struct {
	slotBits, k       uint
	keyMask, slotMask uint64
}

// geometryOf is the geometry of a table of 2^slotBits slots. k is the
// largest width per endpoint whose 2k-bit key leaves a quotient of at
// most quotBits bits, capped at the 31 bits a non-negative int32 has.
func geometryOf(slotBits uint) geometry {
	k := min(31, (quotBits+slotBits)/2)
	return geometry{slotBits: slotBits, k: k, keyMask: 1<<(2*k) - 1, slotMask: 1<<slotBits - 1}
}

// locate is where the pair (s, t) lives: the slot index and the
// quotient stored there. ok is false for a pair outside the keyable
// range, which the cache never holds.
func (g geometry) locate(s, t int32) (slot uint64, quot uint32, ok bool) {
	k := g.k & 63 // k ≤ 31; the mask spares the shifts their overflow guard
	if (uint32(s)|uint32(t))>>k != 0 {
		return 0, 0, false
	}
	x := mix(uint64(s)<<k|uint64(t), k, g.keyMask)
	return x & g.slotMask, uint32(x >> g.slotBits), true
}

// Cache is a hot-pair cache. The zero value is not usable; call New. A
// nil *Cache is a valid no-op: Get always misses and Put does nothing,
// so call sites need no cache-enabled branches.
type Cache struct {
	slots []atomic.Uint32
	geometry
}

// New returns a cache of capacity slots rounded up to a power of two.
// nShards is ignored: the table is one array (the parameter stays
// while the benchmark harness passes it). New(0, n) and a nil cache
// both disable caching.
func New(capacity, nShards int) *Cache {
	if capacity <= 0 {
		return nil
	}
	slotBits := uint(bits.Len(uint(capacity - 1)))
	return &Cache{slots: make([]atomic.Uint32, 1<<slotBits), geometry: geometryOf(slotBits)}
}

// Get returns the cached answer for (s, t) and whether one was
// present.
func (c *Cache) Get(s, t int32) (reachable, ok bool) {
	if c == nil {
		return false, false
	}
	i, q, ok := c.locate(s, t)
	if !ok {
		return false, false
	}
	w := c.slots[i].Load()
	if w&occupiedBit == 0 || w>>quotShift != q {
		return false, false
	}
	return w&answerBit != 0, true
}

// Put records the answer for (s, t), overwriting whatever pair shared
// the slot; a pair outside the keyable range is dropped. Answers are
// immutable per pair (the index never changes), so racing Puts for the
// same pair write the same word.
func (c *Cache) Put(s, t int32, reachable bool) {
	if c == nil {
		return
	}
	i, q, ok := c.locate(s, t)
	if !ok {
		return
	}
	w := q<<quotShift | occupiedBit
	if reachable {
		w |= answerBit
	}
	c.slots[i].Store(w)
}

// Capacity returns the number of slots (0 for a nil cache).
func (c *Cache) Capacity() int {
	if c == nil {
		return 0
	}
	return len(c.slots)
}
