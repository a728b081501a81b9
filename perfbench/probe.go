package main

import (
	"time"

	"stfm/internal/dram"
	"stfm/internal/trace"
)

// probeEvery is the sampling period of timed Next calls: timing every
// call would double the trace layer's cost.
const probeEvery = 64

// probeStream wraps a synthetic generator to count its Next calls and
// time every probeEvery-th one. It returns the generator's accesses
// unchanged, so a run fed through probes has the same schedule as one
// whose generators sim builds itself (the traced run asserts it).
type probeStream struct {
	gen     *trace.Generator
	calls   int64
	sampled int64
	ns      int64
}

func (p *probeStream) Next() (trace.Access, bool) {
	p.calls++
	if p.calls%probeEvery != 0 {
		return p.gen.Next()
	}
	t := time.Now()
	a, ok := p.gen.Next()
	p.ns += time.Since(t).Nanoseconds()
	p.sampled++
	return a, ok
}

// clockCost is the mean cost of an empty time.Now/time.Since pair, which
// each sampled Next pays on top of the generator's own work.
func clockCost() int64 {
	const n = 4096
	var total int64
	for i := 0; i < n; i++ {
		t := time.Now()
		total += time.Since(t).Nanoseconds()
	}
	return total / n
}

// newProbes builds one probe per core over the generators sim.NewSystem
// would build: same profile, the controller's geometry, the core index
// and the run's seed.
func newProbes(profiles []trace.Profile, geom dram.Geometry, seed uint64) ([]*probeStream, []trace.Stream, error) {
	probes := make([]*probeStream, len(profiles))
	streams := make([]trace.Stream, len(profiles))
	for i, p := range profiles {
		gen, err := trace.NewGenerator(p, geom, i, seed)
		if err != nil {
			return nil, nil, err
		}
		probes[i] = &probeStream{gen: gen}
		streams[i] = probes[i]
	}
	return probes, streams, nil
}
