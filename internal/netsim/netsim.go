// Package netsim models the network cost of the simulated cluster.
//
// The paper evaluates on 32 physical machines connected by a
// commodity network; this reproduction runs the same partitioned
// workers inside one process. Message payloads still cross a real
// serialization boundary (see internal/pregel), but wire latency and
// bandwidth do not exist in-process, so they are modeled here and
// added to the measured communication time. The defaults approximate
// gigabit-class datacenter Ethernet; the model is deliberately simple
// (per-superstep barrier latency plus byte transfer time) because the
// experiments only depend on two effects it captures well:
//
//   - algorithms with many supersteps (distributed DFS in BFL^D) pay a
//     per-step latency that dwarfs everything else, and
//   - algorithms that move fewer bytes (DRL_b vs DRL) spend
//     proportionally less time in exchange.
package netsim

import "time"

// Model describes the simulated interconnect.
type Model struct {
	// BarrierLatency is charged once per superstep when more than one
	// worker participates: the cost of the BSP barrier plus message
	// round-trip start-up.
	BarrierLatency time.Duration
	// BytesPerSecond is the point-to-point bandwidth; remote bytes are
	// charged at this rate.
	BytesPerSecond int64
}

// Commodity returns the default model: 100µs per barrier,
// 1.25 GB/s (10 GbE) bandwidth.
func Commodity() Model {
	return Model{BarrierLatency: 100 * time.Microsecond, BytesPerSecond: 1_250_000_000}
}

// Zero returns a free network (used by tests and the multi-core
// configuration, where exchanges are shared-memory).
func Zero() Model { return Model{} }

// ExchangeCost returns the simulated time for one superstep exchange
// that moved remoteBytes across worker boundaries among p workers.
func (m Model) ExchangeCost(remoteBytes int64, p int) time.Duration {
	if p <= 1 {
		return 0
	}
	cost := m.BarrierLatency
	if m.BytesPerSecond > 0 {
		cost += time.Duration(float64(remoteBytes) / float64(m.BytesPerSecond) * float64(time.Second))
	}
	return cost
}
