package qcache

import "testing"

// sink keeps the benchmarked Get calls from being optimized away.
var sink bool

// BenchmarkCache times one call over the handler's default table (2^20
// slots) and a fixed zipf stream of 2^16 pairs over 200,000 vertices:
// Get on pairs the filled table holds, Get on pairs it does not (their
// slots hold another pair's quotient, or nothing), and Put.
//
//	go test ./internal/qcache -run '^$' -bench Cache
func BenchmarkCache(b *testing.B) {
	stream := zipfPairs(1, 200_000, 1<<16)
	c := New(1<<20, 0)
	for _, p := range stream {
		c.Put(p[0], p[1], true)
	}
	var hits, misses [][2]int32
	for _, p := range append(stream, zipfPairs(2, 200_000, 1<<16)...) {
		if _, ok := c.Get(p[0], p[1]); ok {
			hits = append(hits, p)
		} else {
			misses = append(misses, p)
		}
	}
	get := func(pairs [][2]int32) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				sink, _ = c.Get(p[0], p[1])
			}
		}
	}
	b.Run("get-hit", get(hits))
	b.Run("get-miss", get(misses))
	b.Run("put", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := stream[i%len(stream)]
			c.Put(p[0], p[1], true)
		}
	})
}
