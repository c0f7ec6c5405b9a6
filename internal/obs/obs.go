// Package obs is the simulation observability layer: a metrics registry
// (counters, gauges, fixed-bucket latency histograms), a span-based
// request-flow tracer that exports Chrome trace_event JSON, and T_i
// telemetry sampled at the metadata-server broadcast tick.
//
// The package is built around a zero-cost-when-off contract. A nil *Set
// disables everything: components receive nil metric structs and a nil
// tracer, and every instrumentation point in the simulator reduces to a
// single branch on a nil pointer — no interface dispatch, no map lookup,
// no allocation. The hot-path microbenchmarks in internal/sim assert
// that the disabled path stays at 0 allocs/op.
//
// When enabled, components register their metrics once at construction
// (the only point where names are resolved) and thereafter update them
// through pointers. Counters and gauges are atomics and histograms take
// a short mutex, so one Set can safely aggregate across the parallel
// experiment runner's concurrent simulations.
//
// Observability never perturbs the simulation: probes only read state
// and record, so a traced run is byte-identical to an untraced one
// (enforced by internal/experiments' determinism tests).
package obs

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/sim"
)

// Config selects which observability features are enabled.
type Config struct {
	// Metrics enables the registry (counters, gauges, histograms).
	Metrics bool
	// Trace enables the request-flow tracer.
	Trace bool
	// SampleEvery throttles T_i sampling: samples closer together than
	// this are dropped. 0 samples at every metadata broadcast tick.
	SampleEvery sim.Duration
	// MaxTraceEvents bounds the tracer's in-memory event buffer
	// (default 1<<20); later events are counted as dropped.
	MaxTraceEvents int
}

// Set is one observability instance: the registry, the tracer, and the
// per-run T_i samplers. A nil *Set is valid and means "disabled"; all
// accessors return nil so callers wire nil sinks into components.
type Set struct {
	cfg     Config
	reg     *Registry
	tr      *XTracer
	nextRun atomic.Int32
	ti      tiList
}

// New returns a Set per cfg, or nil when nothing is enabled (so callers
// can thread the result straight into components as the disabled sink).
func New(cfg Config) *Set {
	if !cfg.Metrics && !cfg.Trace {
		return nil
	}
	s := &Set{cfg: cfg}
	if cfg.Metrics {
		s.reg = NewRegistry()
	}
	if cfg.Trace {
		s.tr = NewXTracer("sim", cfg.MaxTraceEvents)
		if s.reg != nil {
			// Surface overflow in the metrics: a truncated trace should
			// show up in the registry, not be discovered by its absence.
			s.tr.SetDropCounter(s.reg.Counter("obs.trace.dropped_events"))
		}
	}
	return s
}

// Registry returns the metrics registry, or nil when metrics are off.
func (s *Set) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Tracer returns the request-flow tracer, process "sim", or nil when
// tracing is off.
func (s *Set) Tracer() *XTracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// NextRun allocates a run id, labelling one cluster instance in the
// trace (the "run<N>/" prefix of its lanes) and the T_i sampler list.
func (s *Set) NextRun() int32 {
	if s == nil {
		return 0
	}
	return s.nextRun.Add(1)
}

// WriteMetrics renders the registry and the T_i telemetry to w.
func (s *Set) WriteMetrics(w io.Writer) {
	if s == nil {
		return
	}
	if s.reg != nil {
		io.WriteString(w, s.reg.Render())
	}
	s.ti.render(w)
}

// fmtDur formats a millisecond quantity for metric output.
func fmtMS(ms float64) string { return fmt.Sprintf("%.3fms", ms) }
