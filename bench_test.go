// Benchmarks regenerating every table and figure of the paper's
// evaluation at reduced scale, plus ablation benches for the design
// choices called out in DESIGN.md. Each benchmark runs the experiment
// end to end per iteration and reports the headline result metrics
// (unfairness, weighted speedup) via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// doubles as a quick reproduction pass; cmd/stfm-experiments runs the
// same experiments at full scale.
package stfm_test

import (
	"testing"

	"stfm/internal/core"
	"stfm/internal/dram"
	"stfm/internal/experiments"
	"stfm/internal/metrics"
	"stfm/internal/sim"
	"stfm/internal/telemetry"
	"stfm/internal/workloads"
)

// benchInstrs keeps per-iteration runtimes manageable while preserving
// the comparative shapes.
const benchInstrs = 30_000

func newBenchRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.Options{InstrTarget: benchInstrs, MinMisses: 60, Seed: 1})
}

// runExperiment executes a registered experiment per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := newBenchRunner()
		e, err := experiments.ByID(id, false)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(r); err != nil {
			b.Fatal(err)
		}
	}
}

// runMixAllPolicies runs one workload under all five schedulers and
// reports FR-FCFS and STFM unfairness.
func runMixAllPolicies(b *testing.B, names ...string) {
	b.Helper()
	profs, err := experiments.Profiles(names...)
	if err != nil {
		b.Fatal(err)
	}
	var frf, stfmU, stfmWS float64
	for i := 0; i < b.N; i++ {
		r := newBenchRunner()
		res, err := r.RunAllPolicies(profs, nil)
		if err != nil {
			b.Fatal(err)
		}
		frf = res[sim.PolicyFRFCFS].Unfairness
		stfmU = res[sim.PolicySTFM].Unfairness
		stfmWS = res[sim.PolicySTFM].WeightedSpeedup
	}
	b.ReportMetric(frf, "frfcfs-unfairness")
	b.ReportMetric(stfmU, "stfm-unfairness")
	b.ReportMetric(stfmWS, "stfm-wspeedup")
}

// BenchmarkFig01Motivation regenerates Figure 1: per-thread slowdowns
// under FR-FCFS on the 4-core and 8-core motivation workloads.
func BenchmarkFig01Motivation(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkTable03Calibration regenerates Table 3: every benchmark's
// alone-run characteristics.
func BenchmarkTable03Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newBenchRunner()
		if _, err := experiments.Table3(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig05TwoCorePairs regenerates Figure 5 on a subset of the
// mcf+X pairs (the full sweep runs in cmd/stfm-experiments).
func BenchmarkFig05TwoCorePairs(b *testing.B) {
	pairs := workloads.TwoCorePairs()[:6]
	var frf, stfmU float64
	for i := 0; i < b.N; i++ {
		r := newBenchRunner()
		var uF, uS []float64
		for _, mix := range pairs {
			f, err := r.RunWorkload(sim.PolicyFRFCFS, mix.Profiles, nil)
			if err != nil {
				b.Fatal(err)
			}
			s, err := r.RunWorkload(sim.PolicySTFM, mix.Profiles, nil)
			if err != nil {
				b.Fatal(err)
			}
			uF = append(uF, f.Unfairness)
			uS = append(uS, s.Unfairness)
		}
		frf, stfmU = metrics.GeoMean(uF), metrics.GeoMean(uS)
	}
	b.ReportMetric(frf, "frfcfs-unfairness")
	b.ReportMetric(stfmU, "stfm-unfairness")
}

// BenchmarkFig06CaseStudy1 regenerates Figure 6: the memory-intensive
// 4-core case study across all five schedulers.
func BenchmarkFig06CaseStudy1(b *testing.B) {
	runMixAllPolicies(b, "mcf", "libquantum", "GemsFDTD", "astar")
}

// BenchmarkFig07CaseStudy2 regenerates Figure 7: the mixed 4-core case
// study.
func BenchmarkFig07CaseStudy2(b *testing.B) {
	runMixAllPolicies(b, "mcf", "leslie3d", "h264ref", "bzip2")
}

// BenchmarkFig08CaseStudy3 regenerates Figure 8: the
// non-memory-intensive 4-core case study.
func BenchmarkFig08CaseStudy3(b *testing.B) {
	runMixAllPolicies(b, "libquantum", "omnetpp", "hmmer", "h264ref")
}

// BenchmarkFig09FourCoreAverages regenerates Figure 9 over a subsample
// of the 256 category-combination workloads.
func BenchmarkFig09FourCoreAverages(b *testing.B) {
	mixes := workloads.FourCoreMixes()
	var frf, stfmU float64
	for i := 0; i < b.N; i++ {
		r := newBenchRunner()
		var uF, uS []float64
		for j := 0; j < 8; j++ {
			mix := mixes[j*32]
			f, err := r.RunWorkload(sim.PolicyFRFCFS, mix.Profiles, nil)
			if err != nil {
				b.Fatal(err)
			}
			s, err := r.RunWorkload(sim.PolicySTFM, mix.Profiles, nil)
			if err != nil {
				b.Fatal(err)
			}
			uF = append(uF, f.Unfairness)
			uS = append(uS, s.Unfairness)
		}
		frf, stfmU = metrics.GeoMean(uF), metrics.GeoMean(uS)
	}
	b.ReportMetric(frf, "frfcfs-unfairness")
	b.ReportMetric(stfmU, "stfm-unfairness")
}

// BenchmarkFig10EightCoreCase regenerates Figure 10: the 8-core
// non-intensive case study.
func BenchmarkFig10EightCoreCase(b *testing.B) {
	runMixAllPolicies(b, "mcf", "h264ref", "bzip2", "gromacs", "gobmk", "dealII", "wrf", "namd")
}

// BenchmarkFig11EightCoreAverages regenerates Figure 11 over a
// subsample of the 32 8-core mixes.
func BenchmarkFig11EightCoreAverages(b *testing.B) {
	mixes := workloads.EightCoreMixes()
	var frf, stfmU float64
	for i := 0; i < b.N; i++ {
		r := newBenchRunner()
		var uF, uS []float64
		for j := 0; j < 3; j++ {
			mix := mixes[j*10]
			f, err := r.RunWorkload(sim.PolicyFRFCFS, mix.Profiles, nil)
			if err != nil {
				b.Fatal(err)
			}
			s, err := r.RunWorkload(sim.PolicySTFM, mix.Profiles, nil)
			if err != nil {
				b.Fatal(err)
			}
			uF = append(uF, f.Unfairness)
			uS = append(uS, s.Unfairness)
		}
		frf, stfmU = metrics.GeoMean(uF), metrics.GeoMean(uS)
	}
	b.ReportMetric(frf, "frfcfs-unfairness")
	b.ReportMetric(stfmU, "stfm-unfairness")
}

// BenchmarkFig12SixteenCore regenerates Figure 12: the high8+low8
// 16-core workload under FR-FCFS and STFM.
func BenchmarkFig12SixteenCore(b *testing.B) {
	mix := workloads.SixteenCoreMixes()[1]
	var frf, stfmU float64
	for i := 0; i < b.N; i++ {
		r := newBenchRunner()
		f, err := r.RunWorkload(sim.PolicyFRFCFS, mix.Profiles, nil)
		if err != nil {
			b.Fatal(err)
		}
		s, err := r.RunWorkload(sim.PolicySTFM, mix.Profiles, nil)
		if err != nil {
			b.Fatal(err)
		}
		frf, stfmU = f.Unfairness, s.Unfairness
	}
	b.ReportMetric(frf, "frfcfs-unfairness")
	b.ReportMetric(stfmU, "stfm-unfairness")
}

// BenchmarkFig13Desktop regenerates Figure 13: the Windows desktop
// workload.
func BenchmarkFig13Desktop(b *testing.B) {
	mix := workloads.Desktop()
	runMixAllPolicies(b, mix.Profiles[0].Name, mix.Profiles[1].Name, mix.Profiles[2].Name, mix.Profiles[3].Name)
}

// BenchmarkFig14ThreadWeights regenerates Figure 14: weight
// enforcement via STFM weights vs NFQ shares.
func BenchmarkFig14ThreadWeights(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15AlphaSweep regenerates Figure 15: STFM's fairness /
// throughput trade-off across alpha values.
func BenchmarkFig15AlphaSweep(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkTable05Sensitivity regenerates Table 5 (banks and
// row-buffer size sensitivity) at reduced mix count.
func BenchmarkTable05Sensitivity(b *testing.B) {
	profs := workloads.EightCoreMixes()[0].Profiles
	var frf, stfmU float64
	for i := 0; i < b.N; i++ {
		for _, banks := range []int{4, 16} {
			g := dram.DefaultGeometry(2)
			g.BanksPerChannel = banks
			r := experiments.NewRunner(experiments.Options{InstrTarget: benchInstrs, MinMisses: 60, Seed: 1, Geometry: &g})
			f, err := r.RunWorkload(sim.PolicyFRFCFS, profs, nil)
			if err != nil {
				b.Fatal(err)
			}
			s, err := r.RunWorkload(sim.PolicySTFM, profs, nil)
			if err != nil {
				b.Fatal(err)
			}
			frf, stfmU = f.Unfairness, s.Unfairness
		}
	}
	b.ReportMetric(frf, "frfcfs-unfairness-16banks")
	b.ReportMetric(stfmU, "stfm-unfairness-16banks")
}

// --- Ablation benches (DESIGN.md Section 8) ---

func stfmVariant(b *testing.B, mutate func(*core.Config)) (unfairness float64) {
	b.Helper()
	profs, err := experiments.Profiles("mcf", "libquantum", "GemsFDTD", "astar")
	if err != nil {
		b.Fatal(err)
	}
	r := newBenchRunner()
	wr, err := r.RunWorkload(sim.PolicySTFM, profs, func(c *sim.Config) {
		cfg := core.DefaultConfig()
		mutate(&cfg)
		c.STFM = cfg
	})
	if err != nil {
		b.Fatal(err)
	}
	return wr.Unfairness
}

// BenchmarkAblationGamma sweeps the γ scaling of the bank-parallelism
// divisor (the paper used 1/2 on its simulator; 1 is this
// reproduction's default).
func BenchmarkAblationGamma(b *testing.B) {
	var u05, u10, u20 float64
	for i := 0; i < b.N; i++ {
		u05 = stfmVariant(b, func(c *core.Config) { c.Gamma = 0.5 })
		u10 = stfmVariant(b, func(c *core.Config) { c.Gamma = 1.0 })
		u20 = stfmVariant(b, func(c *core.Config) { c.Gamma = 2.0 })
	}
	b.ReportMetric(u05, "unfairness-g0.5")
	b.ReportMetric(u10, "unfairness-g1.0")
	b.ReportMetric(u20, "unfairness-g2.0")
}

// BenchmarkAblationOwnThread compares STFM with and without the
// own-thread ExtraLatency interference term.
func BenchmarkAblationOwnThread(b *testing.B) {
	var on, off float64
	for i := 0; i < b.N; i++ {
		on = stfmVariant(b, func(c *core.Config) {})
		off = stfmVariant(b, func(c *core.Config) { c.DisableOwnThreadUpdate = true })
	}
	b.ReportMetric(on, "unfairness-own-on")
	b.ReportMetric(off, "unfairness-own-off")
}

// BenchmarkAblationInterval sweeps IntervalLength (the paper reports
// insensitivity above 2^18).
func BenchmarkAblationInterval(b *testing.B) {
	var small, large float64
	for i := 0; i < b.N; i++ {
		small = stfmVariant(b, func(c *core.Config) { c.IntervalLength = 1 << 16 })
		large = stfmVariant(b, func(c *core.Config) { c.IntervalLength = 1 << 24 })
	}
	b.ReportMetric(small, "unfairness-2^16")
	b.ReportMetric(large, "unfairness-2^24")
}

// BenchmarkAblationFixedPoint compares float64 slowdown registers with
// the 8-bit fixed-point hardware format of Table 1.
func BenchmarkAblationFixedPoint(b *testing.B) {
	var fl, fx float64
	for i := 0; i < b.N; i++ {
		fl = stfmVariant(b, func(c *core.Config) {})
		fx = stfmVariant(b, func(c *core.Config) { c.FixedPointSlowdowns = true })
	}
	b.ReportMetric(fl, "unfairness-float")
	b.ReportMetric(fx, "unfairness-fixed")
}

// BenchmarkAblationParallelismSource compares amortizing bank
// interference over waiting banks (Table 1's register) vs waiting
// requests (the prose's wording).
func BenchmarkAblationParallelismSource(b *testing.B) {
	var banks, reqs float64
	for i := 0; i < b.N; i++ {
		banks = stfmVariant(b, func(c *core.Config) {})
		reqs = stfmVariant(b, func(c *core.Config) { c.RequestCountParallelism = true })
	}
	b.ReportMetric(banks, "unfairness-bankcount")
	b.ReportMetric(reqs, "unfairness-requestcount")
}

// BenchmarkAblationIgnoreParallelism measures the "too simplistic"
// estimate the paper argues against: charging full latency without
// amortization.
func BenchmarkAblationIgnoreParallelism(b *testing.B) {
	var amortized, ignored float64
	for i := 0; i < b.N; i++ {
		amortized = stfmVariant(b, func(c *core.Config) {})
		ignored = stfmVariant(b, func(c *core.Config) { c.IgnoreBankParallelism = true })
	}
	b.ReportMetric(amortized, "unfairness-amortized")
	b.ReportMetric(ignored, "unfairness-ignored")
}

// BenchmarkAblationCap sweeps FR-FCFS+Cap's cap value.
func BenchmarkAblationCap(b *testing.B) {
	profs, err := experiments.Profiles("mcf", "libquantum", "GemsFDTD", "astar")
	if err != nil {
		b.Fatal(err)
	}
	caps := []int{1, 4, 16}
	vals := make([]float64, len(caps))
	for i := 0; i < b.N; i++ {
		r := newBenchRunner()
		for j, cap := range caps {
			cap := cap
			wr, err := r.RunWorkload(sim.PolicyFRFCFSCap, profs, func(c *sim.Config) { c.CapValue = cap })
			if err != nil {
				b.Fatal(err)
			}
			vals[j] = wr.Unfairness
		}
	}
	b.ReportMetric(vals[0], "unfairness-cap1")
	b.ReportMetric(vals[1], "unfairness-cap4")
	b.ReportMetric(vals[2], "unfairness-cap16")
}

// steppingRun executes the stepping benchmark workload — a sparse
// low-MPKI pair (both from the paper's "not intensive" class, with
// serial low-row-hit misses) in which the vast majority of CPU cycles
// are dead: both cores stalled on a dependent miss while the controller
// waits out tRCD/tCL/tRP on an otherwise idle channel. This is the
// workload shape event-driven stepping exists for. The dense/event pair
// below times it on the host at hand; compare two commits on one
// machine. The machine-independent view of the same saving is
// System.Counters (CyclesSkipped against Steps, pinned by
// TestWorkCounters in internal/sim).
func steppingRun(b *testing.B, dense bool) int64 {
	return steppingRunTel(b, dense, nil)
}

func steppingRunTel(b *testing.B, dense bool, col *telemetry.Collector) int64 {
	b.Helper()
	profs, err := experiments.Profiles("astar", "omnetpp")
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(sim.PolicyFRFCFS, len(profs))
	cfg.InstrTarget = benchInstrs
	cfg.MinMisses = 60
	cfg.DenseTick = dense
	cfg.Telemetry = col
	res, err := sim.Run(cfg, profs)
	if err != nil {
		b.Fatal(err)
	}
	return res.TotalCycles
}

// BenchmarkSteppingDense measures the dense per-cycle tick loop on the
// sparse workload (the pre-refactor behavior, kept behind
// Config.DenseTick).
func BenchmarkSteppingDense(b *testing.B) {
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		cycles += steppingRun(b, true)
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkSteppingEvent measures event-driven stepping (the default)
// on the same workload; the ratio to BenchmarkSteppingDense is the
// refactor's payoff.
func BenchmarkSteppingEvent(b *testing.B) {
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		cycles += steppingRun(b, false)
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkSteppingEventTelemetry measures event-driven stepping with a
// telemetry collector attached (interval sampling plus the command
// ring); the ratio to BenchmarkSteppingEvent is the observability
// layer's overhead when it is actually collecting. With telemetry off
// the cost must stay at a nil check: time BenchmarkSteppingEvent
// against the parent commit on one machine to check it, while
// TestTelemetryEquivalence pins that a collector never changes a
// Result. Allocations
// are reported because the sampling path reserves its series up front
// (TimeSeries.Reserve) and the event ring is fixed-size: the per-run
// allocation delta over BenchmarkSteppingEvent must stay flat in the
// run's sample count, never grow with its cycle count.
func BenchmarkSteppingEventTelemetry(b *testing.B) {
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		col := telemetry.New(telemetry.Options{SampleEvery: 1000, TraceCap: telemetry.DefaultTraceCap})
		cycles += steppingRunTel(b, false, col)
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkSimulatorThroughput measures raw simulation speed:
// CPU-cycles simulated per second on a 4-core STFM run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	profs, err := experiments.Profiles("mcf", "libquantum", "GemsFDTD", "astar")
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(sim.PolicySTFM, 4)
		cfg.InstrTarget = benchInstrs
		res, err := sim.Run(cfg, profs)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.TotalCycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}
