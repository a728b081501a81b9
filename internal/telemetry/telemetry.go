// Package telemetry is the simulator's observability layer: a
// fixed-size ring buffer of DRAM command and request lifecycle events
// (the tracer), an interval sampler that snapshots live scheduler state
// into an append-only time series, and profiling helpers.
//
// The paper's contribution is a *runtime estimator* — STFM's
// Tshared/Talone slowdown registers (Section 3) — yet end-of-run
// aggregates cannot show an estimate drifting, a bank starving, or a
// priority inversion happening. The tracer and sampler expose exactly
// that per-interval visibility, the kind later schedulers (Blacklisting,
// staged heterogeneous controllers) are designed around.
//
// Layering: this package depends only on the standard library. The
// memory controller (internal/memctrl) records events into a Tracer it
// is handed; the simulation loop (internal/sim) drives the Sampler off the
// event-stepping horizon, so sampling costs nothing in quiescent
// windows. Everything is nil-guarded: with no Collector attached, the
// hot paths pay a single pointer check (DESIGN.md Section 11 documents
// the invariant; BenchmarkSteppingEvent and
// BenchmarkSteppingEventTelemetry in the root package time it).
package telemetry

// Options selects which telemetry components a run collects. The zero
// value disables everything.
type Options struct {
	// SampleEvery is the sampling interval in DRAM command-clock
	// cycles; 0 disables interval sampling.
	SampleEvery int64
	// TraceCap is the event ring-buffer capacity; 0 disables command
	// tracing. DefaultTraceCap is a sensible size for interactive runs.
	TraceCap int
}

// DefaultTraceCap is the ring capacity used by the -telemetry CLI flags
// when no explicit capacity is given: large enough to hold the full
// command stream of an interactive run, small enough to stay cache- and
// memory-friendly (an Event is a few dozen bytes).
const DefaultTraceCap = 1 << 16

// Enabled reports whether any telemetry component is switched on.
func (o Options) Enabled() bool { return o.SampleEvery > 0 || o.TraceCap > 0 }

// Collector bundles the telemetry components attached to one simulation
// run. Either field may be nil: a nil Tracer disables event tracing, a
// nil Series disables interval sampling.
type Collector struct {
	// Tracer receives DRAM command and request lifecycle events from
	// the memory controller.
	Tracer *Tracer
	// Series receives the interval samples taken by the simulation
	// loop.
	Series *TimeSeries
	// SampleEvery is the requested sampling interval in DRAM cycles
	// (the simulation converts it to CPU cycles using the configured
	// clock ratio and records the result in Series.EveryCPUCycles).
	SampleEvery int64
}

// New builds a Collector from Options, allocating only the enabled
// components.
func New(opts Options) *Collector {
	c := &Collector{SampleEvery: opts.SampleEvery}
	if opts.TraceCap > 0 {
		c.Tracer = NewTracer(opts.TraceCap)
	}
	if opts.SampleEvery > 0 {
		c.Series = &TimeSeries{}
	}
	return c
}
