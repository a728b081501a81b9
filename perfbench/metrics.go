package main

// metricDef names one reported metric. Better is the direction in which
// a change counts as an improvement; the compare mode uses it to decide
// which side of a pair won.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the simulator or the server sees,
// reported with tracing off on every workload. README.md defines each
// one per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"sim_cycles_per_s", "1/s", "higher"},
	{"host_allocs_per_request", "count", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"job_latency_p50_ms", "ms", "lower"},
	{"job_latency_p95_ms", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
}

// layers are the repository's modules in the order the per-layer
// metrics list them. "bench" is the benchmark's own code (probes and
// harness); "runtime" is every sample with no repository frame.
var layers = []string{
	"trace", "cpu", "cache", "memctrl", "policy", "core", "dram",
	"sim", "telemetry", "experiments", "service", "runtime", "bench",
}

// perLayer are the traced run's metrics. They have no regression bound;
// the exact simulated counts among them repeat bit for bit for a seed.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".cpu_share", "fraction", "lower"})
	}
	return append(out, []metricDef{
		{"bench.cpu_samples", "count", "higher"},
		{"bench.trace_overhead", "ratio", "lower"},
		{"memctrl.host_ns_per_request", "ns", "lower"},
		{"cpu.host_ns_per_kinstr", "ns", "lower"},
		{"trace.host_ns_per_access", "ns", "lower"},
		{"memctrl.allocs_per_request", "count", "lower"},
		{"cpu.allocs_per_request", "count", "lower"},
		{"sim.allocs_per_request", "count", "lower"},
		{"cache.allocs_per_request", "count", "lower"},
		{"trace.accesses", "count", "lower"},
		{"cpu.instructions", "count", "lower"},
		{"cpu.mem_stall_frac", "fraction", "lower"},
		{"cache.l1_hit_rate", "fraction", "higher"},
		{"cache.l2_hit_rate", "fraction", "higher"},
		{"memctrl.requests", "count", "lower"},
		{"memctrl.read_latency_avg_cyc", "cycles", "lower"},
		{"memctrl.read_latency_p99_cyc", "cycles", "lower"},
		{"dram.commands", "count", "lower"},
		{"dram.row_hit_rate", "fraction", "higher"},
		{"dram.bus_util", "fraction", "higher"},
		{"core.fairness_mode_frac", "fraction", "lower"},
		{"core.interval_resets", "count", "lower"},
		{"sim.cycles", "cycles", "lower"},
		{"experiments.unfairness", "ratio", "lower"},
		{"experiments.weighted_speedup", "ratio", "higher"},
		{"experiments.alone_runs", "count", "lower"},
		{"experiments.baseline_hit_rate", "fraction", "higher"},
		{"experiments.store_kb", "KiB", "lower"},
		{"experiments.mix_ms_p50", "ms", "lower"},
		{"sim.checkpoint_ms", "ms", "lower"},
		{"sim.restore_ms", "ms", "lower"},
		{"sim.checkpoint_kb", "KiB", "lower"},
		{"service.submit_ms_p50", "ms", "lower"},
		{"service.queue_wait_ms_p50", "ms", "lower"},
		{"service.queue_wait_ms_p95", "ms", "lower"},
		{"service.run_ms_p50", "ms", "lower"},
		{"service.run_ms_p95", "ms", "lower"},
		{"service.poll_gap_ms_p50", "ms", "lower"},
		{"service.cache_hit_rate", "fraction", "higher"},
		{"service.runs_per_distinct_config", "ratio", "lower"},
		{"service.wal_kb", "KiB", "lower"},
	}...)
}()
