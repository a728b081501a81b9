package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"stfm/internal/dram"
	"stfm/internal/sim"
	"stfm/internal/telemetry"
)

// These tests pin run-level parallelism, the only parallelism the
// simulator has: the RunMatrix worker pool and the service workers
// execute independent runs on concurrent goroutines, and every such
// run must be bit-identical to the same run executed alone. A run may
// share nothing mutable with its neighbours — not its profiles, not a
// package-level pool or cache — so a leak between concurrent runs
// diverges here.

// concurrentCopies is how many copies of a run execute at once.
const concurrentCopies = 3

// parallelTwinRun executes cfg alone, then concurrentCopies copies of
// it at once on separate goroutines sharing the same profiles, and
// fails the test unless every concurrent Result is DeepEqual to the
// lone one. It returns the lone result for further assertions.
func parallelTwinRun(t *testing.T, cfg sim.Config, names []string) *sim.Result {
	t.Helper()
	profiles, err := Profiles(names...)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := sim.Run(cfg, profiles)
	if err != nil {
		t.Fatalf("lone run: %v", err)
	}
	results := make([]*sim.Result, concurrentCopies)
	errs := make([]error, concurrentCopies)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sim.Run(cfg, profiles)
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(alone, res) {
			t.Errorf("concurrent run %d diverges from the lone run\nalone:      %+v\nconcurrent: %+v", i, alone, res)
		}
	}
	return alone
}

// TestParallelEquivalence runs every implemented scheduler on a
// multi-channel mix dense, event-driven alone, and event-driven
// alongside concurrent copies, and requires all Results to match. The
// write-heavy GemsFDTD stream exercises write-drain hysteresis, the
// controller state most likely to be disturbed by anything shared.
func TestParallelEquivalence(t *testing.T) {
	t.Parallel()
	mix := []string{"mcf", "libquantum", "GemsFDTD", "astar"}
	for _, pol := range sim.ExtendedPolicies() {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			t.Parallel()
			profiles, err := Profiles(mix...)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig(pol, len(profiles))
			cfg.InstrTarget = 12_000
			cfg.MinMisses = 30

			cfg.DenseTick = true
			dense, err := sim.Run(cfg, profiles)
			if err != nil {
				t.Fatalf("dense run: %v", err)
			}
			cfg.DenseTick = false
			event := parallelTwinRun(t, cfg, mix)
			if !reflect.DeepEqual(dense, event) {
				t.Errorf("dense and event results diverge\ndense: %+v\nevent: %+v", dense, event)
			}
		})
	}
}

// TestParallelEquivalenceProtocols extends the lone-vs-concurrent
// differential across all five protocol packs × every implemented
// scheduler. -short keeps a single pack.
func TestParallelEquivalenceProtocols(t *testing.T) {
	t.Parallel()
	mix := []string{"mcf", "libquantum", "GemsFDTD", "astar"}
	protos := []dram.Protocol{dram.DDR2, dram.DDR3, dram.DDR4, dram.GDDR5, dram.HBM}
	if testing.Short() {
		protos = []dram.Protocol{dram.HBM}
	}
	for _, proto := range protos {
		for _, pol := range sim.ExtendedPolicies() {
			proto, pol := proto, pol
			t.Run(string(proto)+"/"+string(pol), func(t *testing.T) {
				t.Parallel()
				cfg := sim.DefaultConfig(pol, len(mix))
				cfg.Protocol = proto
				cfg.InstrTarget = 8_000
				cfg.MinMisses = 30
				parallelTwinRun(t, cfg, mix)
			})
		}
	}
}

// TestParallelEquivalenceRefresh covers per-bank refresh: HBM's
// rotating refresh makes channels active on refresh deadlines even
// when their queues are quiet, and that schedule must not depend on
// what else the process is running.
func TestParallelEquivalenceRefresh(t *testing.T) {
	t.Parallel()
	tm, err := dram.PresetTiming(dram.HBM)
	if err != nil {
		t.Fatal(err)
	}
	tm = tm.WithRefresh()
	cfg := sim.DefaultConfig(sim.PolicySTFM, 2)
	cfg.Protocol = dram.HBM
	cfg.Timing = &tm
	cfg.InstrTarget = 8_000
	cfg.MinMisses = 30
	parallelTwinRun(t, cfg, []string{"mcf", "libquantum"})
}

// TestParallelEquivalenceGOMAXPROCS pins that concurrent runs are
// independent of how many CPUs the Go scheduler grants: under
// GOMAXPROCS=1 the copies interleave on one thread, under
// GOMAXPROCS=NumCPU they spread, and both must reproduce the lone
// Result bit for bit. Not t.Parallel: it flips a process-global knob.
func TestParallelEquivalenceGOMAXPROCS(t *testing.T) {
	mix := []string{"mcf", "libquantum", "GemsFDTD", "astar"}
	cfg := sim.DefaultConfig(sim.PolicySTFM, len(mix))
	cfg.InstrTarget = 12_000
	cfg.MinMisses = 30
	for _, procs := range []int{1, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			parallelTwinRun(t, cfg, mix)
		})
	}
}

// TestParallelTelemetryEquivalence requires concurrent runs to capture
// the same telemetry as a lone run, not just the same Result: identical
// interval samples and an identical event ring, each run recording into
// its own Collector.
func TestParallelTelemetryEquivalence(t *testing.T) {
	t.Parallel()
	profiles, err := Profiles("mcf", "h264ref", "GemsFDTD", "astar")
	if err != nil {
		t.Fatal(err)
	}
	base := sim.DefaultConfig(sim.PolicySTFM, len(profiles))
	base.InstrTarget = 15_000
	base.MinMisses = 40

	run := func() (*sim.Result, *telemetry.Collector, error) {
		cfg := base
		col := telemetry.New(telemetry.Options{SampleEvery: 500, TraceCap: 1 << 14})
		cfg.Telemetry = col
		res, err := sim.Run(cfg, profiles)
		return res, col, err
	}
	aloneRes, aloneCol, err := run()
	if err != nil {
		t.Fatalf("lone run: %v", err)
	}
	as, ae := aloneCol.Series.Samples(), aloneCol.Tracer.Events()
	if len(as) == 0 {
		t.Fatal("no samples collected")
	}
	if len(ae) == 0 {
		t.Fatal("no events traced")
	}

	type outcome struct {
		res *sim.Result
		col *telemetry.Collector
		err error
	}
	outs := make([]outcome, concurrentCopies)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, col, err := run()
			outs[i] = outcome{res, col, err}
		}(i)
	}
	wg.Wait()

	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("concurrent run %d: %v", i, o.err)
		}
		if !reflect.DeepEqual(aloneRes, o.res) {
			t.Errorf("concurrent run %d: results diverge with telemetry on\nalone:      %+v\nconcurrent: %+v", i, aloneRes, o.res)
		}
		if cs := o.col.Series.Samples(); !reflect.DeepEqual(as, cs) {
			t.Fatalf("concurrent run %d: interval samples diverge: alone %d samples, concurrent %d", i, len(as), len(cs))
		}
		ce := o.col.Tracer.Events()
		if !reflect.DeepEqual(ae, ce) {
			limit := min(len(ae), len(ce))
			for j := 0; j < limit; j++ {
				if !reflect.DeepEqual(ae[j], ce[j]) {
					t.Fatalf("concurrent run %d: trace event %d diverges\nalone:      %+v\nconcurrent: %+v", i, j, ae[j], ce[j])
				}
			}
			t.Fatalf("concurrent run %d: trace lengths diverge: alone %d, concurrent %d", i, len(ae), len(ce))
		}
	}
}
