package main

import (
	"context"
	"fmt"
	"reflect"

	"stfm/internal/dram"
	"stfm/internal/memctrl"
	"stfm/internal/metrics"
	"stfm/internal/sim"
	"stfm/internal/trace"
	"stfm/internal/workloads"
)

// simWork runs one multiprogrammed mix through sim.NewSystem and
// System.RunContext per iteration. Caches, when on, start empty in every
// iteration: nothing warms them before statistics are collected.
type simWork struct {
	mix  workloads.Mix
	cfg  sim.Config
	geom dram.Geometry // the controller's geometry, for the trace probes
}

// newSimSTFM16 is sim-stfm-16c: the high8+low8 16-core mix on four
// channels under STFM in miss-stream mode.
func newSimSTFM16() *simWork {
	cfg := sim.DefaultConfig(sim.PolicySTFM, 16)
	cfg.InstrTarget = 80_000
	cfg.MinMisses = 150
	return &simWork{mix: workloads.SixteenCoreMixes()[1], cfg: cfg}
}

// newSimCaches4 is sim-caches-4c: the light astar+omnetpp+hmmer+dealII
// mix under FR-FCFS behind the L1/L2 hierarchy.
func newSimCaches4() *simWork {
	cfg := sim.DefaultConfig(sim.PolicyFRFCFS, 4)
	cfg.InstrTarget = 600_000
	cfg.MinMisses = 150
	cfg.UseCaches = true
	return &simWork{mix: workloads.SampleFourCore()[8], cfg: cfg}
}

func (w *simWork) prepare(ctx context.Context, b *bench) error {
	w.cfg.Seed = b.seed
	sys, err := sim.NewSystem(w.cfg, w.mix.Profiles)
	if err != nil {
		return err
	}
	w.geom = sys.Controller().Config().Geometry
	return nil
}

func (w *simWork) setup(ctx context.Context, b *bench, it *iter) (func() error, func(bool), error) {
	cfg := w.cfg
	var probes []*probeStream
	if it.pass != passUntraced {
		var err error
		if probes, cfg.Streams, err = newProbes(w.mix.Profiles, w.geom, cfg.Seed); err != nil {
			return nil, nil, err
		}
	}
	sys, err := sim.NewSystem(cfg, w.mix.Profiles)
	if err != nil {
		return nil, nil, err
	}
	run := func() error {
		_, end := b.spans.begin(it.root, 0, "sim.System.RunContext "+w.mix.Name)
		res, err := sys.RunContext(ctx)
		end()
		b.addOps(1)
		it.jobs = append(it.jobs, 0) // latency filled in below
		if err != nil {
			return err
		}
		it.results = []*sim.Result{res}
		return nil
	}
	teardown := func(ran bool) {
		if !ran {
			return
		}
		it.jobs[0] = it.wall
		w.observe(it, sys, it.results[0], probes)
	}
	return run, teardown, nil
}

// observe reads the finished system through its public accessors: the
// request and instruction denominators every iteration needs, and the
// exact per-layer counts a traced iteration reports.
func (w *simWork) observe(it *iter, sys *sim.System, res *sim.Result, probes []*probeStream) {
	ctrl := sys.Controller()
	var reads, writes, latSum int64
	var hist memctrl.LatencyHistogram
	for t := range w.mix.Profiles {
		st := ctrl.ThreadStats(t)
		reads += st.ReadsServiced
		writes += st.WritesServiced
		latSum += st.TotalReadLatency
		hist.Merge(&st.ReadLatency)
	}
	var instr, stall, cycles int64
	var l1h, l1m, l2h, l2m int64
	for i := range w.mix.Profiles {
		c := sys.Core(i)
		instr += c.Committed()
		stall += c.MemStallCycles()
		cycles += c.Cycles()
		if h := sys.Hierarchy(i); h != nil {
			l1h, l1m = l1h+h.L1().Hits(), l1m+h.L1().Misses()
			l2h, l2m = l2h+h.L2().Hits(), l2m+h.L2().Misses()
		}
	}
	it.cycles = res.TotalCycles
	it.requests = reads + writes
	it.instructions = instr
	if it.pass == passUntraced {
		return
	}
	var cmds, hits, accesses int64
	for ch := 0; ch < ctrl.Config().Geometry.Channels; ch++ {
		s := ctrl.Channel(ch).Stats()
		cmds += s.Activates + s.Precharges + s.Reads + s.Writes + s.Refreshes
		hits += s.RowHits
		accesses += s.RowHits + s.RowClosed + s.RowConflict
	}
	var calls, sampled, ns int64
	for _, p := range probes {
		calls, sampled, ns = calls+p.calls, sampled+p.sampled, ns+p.ns
	}
	l := it.layer
	l["trace.accesses"] = float64(calls)
	if sampled > 0 {
		l["trace.host_ns_per_access"] = max(0, float64(ns)/float64(sampled)-float64(clockCost()))
	}
	l["cpu.instructions"] = float64(instr)
	l["cpu.mem_stall_frac"] = ratio(stall, cycles)
	l["cache.l1_hit_rate"] = ratio(l1h, l1h+l1m)
	l["cache.l2_hit_rate"] = ratio(l2h, l2h+l2m)
	l["memctrl.requests"] = float64(reads + writes)
	l["memctrl.read_latency_avg_cyc"] = ratio(latSum, reads)
	l["memctrl.read_latency_p99_cyc"] = float64(hist.Percentile(0.99))
	l["dram.commands"] = float64(cmds)
	l["dram.row_hit_rate"] = ratio(hits, accesses)
	l["dram.bus_util"] = res.BusUtilization
	if s := sys.STFM(); s != nil {
		l["core.fairness_mode_frac"] = s.FairnessModeFraction()
		l["core.interval_resets"] = float64(s.IntervalResets())
	}
	l["sim.cycles"] = float64(res.TotalCycles)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// check runs the DenseTick oracle (the cycle-by-cycle engine, which must
// reproduce the event-driven Result exactly); a traced run also computes
// the paper's metrics against alone runs of each benchmark in the same
// memory system.
func (w *simWork) check(ctx context.Context, b *bench) error {
	if len(b.iters) == 0 {
		return fmt.Errorf("no iterations")
	}
	got := b.iters[0].results[0]
	cfg := w.cfg
	cfg.DenseTick = true
	_, end := b.spans.begin(0, 1, "oracle DenseTick")
	want, err := sim.RunContext(ctx, cfg, w.mix.Profiles)
	end()
	b.addOps(1)
	if err != nil {
		return fmt.Errorf("dense oracle: %w", err)
	}
	if b.inject {
		want.TotalCycles++
	}
	if !reflect.DeepEqual(got, want) {
		b.fail("%s: event-driven Result differs from the DenseTick oracle", w.mix.Name)
	}
	if !b.traced {
		return nil
	}
	u, ws, err := paperMetrics(ctx, b, w.cfg, w.mix.Profiles, got, map[string]sim.ThreadResult{})
	if err != nil {
		return err
	}
	b.setPaper(u, ws)
	return nil
}

// paperMetrics computes the paper's unfairness (max over min memory
// slowdown) and weighted speedup (Section 6.2) of one shared run against
// each benchmark running alone under FR-FCFS in the same memory system.
// alone caches baselines by benchmark and config across calls.
func paperMetrics(ctx context.Context, b *bench, cfg sim.Config, profiles []trace.Profile, res *sim.Result, alone map[string]sim.ThreadResult) (unfairness, weightedSpeedup float64, err error) {
	a := cfg
	a.Policy = sim.PolicyFRFCFS
	a.ForkAtCycle, a.WarmupPolicy = 0, ""
	a.Streams, a.Telemetry, a.DenseTick = nil, nil, false
	if a.Channels == 0 {
		a.Channels = sim.ProtocolChannels(a.Protocol, len(profiles))
	}
	var sharedMCPI, aloneMCPI, sharedIPC, aloneIPC []float64
	for i, p := range profiles {
		key := a.Fingerprint() + "/" + p.Name
		th, ok := alone[key]
		if !ok {
			_, end := b.spans.begin(0, 1, "alone "+p.Name)
			r, err := sim.RunContext(ctx, a, []trace.Profile{p})
			end()
			if err != nil {
				return 0, 0, fmt.Errorf("alone run of %s: %w", p.Name, err)
			}
			th = r.Threads[0]
			alone[key] = th
		}
		sharedMCPI = append(sharedMCPI, res.Threads[i].MCPI)
		sharedIPC = append(sharedIPC, res.Threads[i].IPC)
		aloneMCPI = append(aloneMCPI, th.MCPI)
		aloneIPC = append(aloneIPC, th.IPC)
	}
	return metrics.Unfairness(metrics.MemSlowdowns(sharedMCPI, aloneMCPI)), metrics.WeightedSpeedup(sharedIPC, aloneIPC), nil
}
