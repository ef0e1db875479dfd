package reachlab

import "repro/internal/obs"

// MetricsRegistry collects counters, gauges, latency histograms, and
// per-superstep traces from every layer that is handed one: the pregel
// superstep loop ("pregel_*" series plus the "pregel" trace),
// the DRL builders ("drl_*"), and the query server ("reachlab_*").
// The zero-dependency implementation lives in internal/obs; this alias
// is the public handle so callers can plumb one registry through
// Options, ClusterOptions, and ServeOptions.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns a fresh, empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.New() }

// DefaultMetrics returns the process-wide default registry, the one
// the cmd/ binaries report to.
func DefaultMetrics() *MetricsRegistry { return obs.Default }
