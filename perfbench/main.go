// Command perfbench is the repository benchmark: one command that runs a
// named workload against the simulator, the experiment runner or the
// stfm-server, prints every end-to-end metric by name with its unit, and
// fails when an output is wrong. With --trace 1 it runs the workload a
// second time with CPU and allocation profiling, trace-stream probes and
// in-memory spans, and prints the per-layer metrics instead.
//
//	bash perfbench/run.sh --workload sim-stfm-16c --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --compare before.jsonl after.jsonl
//
// README.md lists the workloads, the metrics and what each layer metric
// should move.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"stfm/internal/sim"
)

// workDir holds the benchmark's scratch files (stores, journals, traces)
// inside the checkout it runs from.
const workDir = ".bench_build"

// cpuProfileHz is the traced run's CPU sampling rate: 2.5 times the
// runtime/pprof default, so a layer holding 1% of a few seconds of CPU
// still rests on more than ten samples. It is also the highest rate a
// kernel ticking at 250 Hz delivers; asking for more loses samples.
const cpuProfileHz = 250

// workload is one named input set. prepare runs once, untimed; setup
// builds what one iteration runs on and is timed as setup_s; the
// returned run is timed as the iteration's wall clock; teardown records
// what the run left to observe (when ran) and releases the set-up; check
// runs once after measurement, untimed, and compares outputs against an
// oracle.
type workload interface {
	prepare(ctx context.Context, b *bench) error
	setup(ctx context.Context, b *bench, it *iter) (run func() error, teardown func(ran bool), err error)
	check(ctx context.Context, b *bench) error
}

var registry = map[string]func() workload{
	"sim-stfm-16c":  func() workload { return newSimSTFM16() },
	"sim-caches-4c": func() workload { return newSimCaches4() },
	"matrix-fig9":   func() workload { return &matrixWork{} },
	"server-mixed":  func() workload { return &serverWork{} },
}

// Passes of a run: untraced iterations give the end-to-end metrics; a
// traced run adds CPU-profiled iterations and one allocation-recording
// iteration. Traced passes feed the trace streams through probes.
const (
	passUntraced = iota
	passCPU
	passAlloc
)

// iter is one measured iteration.
type iter struct {
	pass         int
	root         int64 // span id of the iteration
	setup, wall  time.Duration
	mallocs      uint64
	heapPeak     uint64
	jobs         []time.Duration    // per-job latency as the caller saw it
	cycles       int64              // simulated CPU cycles in the delivered Results
	requests     int64              // DRAM requests serviced
	instructions int64              // instructions committed
	results      []*sim.Result      // every delivered Result, in a fixed order
	layer        map[string]float64 // per-layer figures of this iteration
}

// bench is one invocation's state.
type bench struct {
	seed    uint64
	traced  bool
	inject  bool
	spans   *spanLog
	iters   []*iter
	layer   map[string]float64 // per-layer metrics the workload reports directly
	ops     int                // operations attempted, for error_rate
	errs    []string           // failed, refused, cancelled or mismatched operations
	errMu   sync.Mutex
	tmpDirs []string
}

func (b *bench) addOps(n int) {
	b.errMu.Lock()
	b.ops += n
	b.errMu.Unlock()
}

func (b *bench) fail(format string, args ...any) {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	b.errs = append(b.errs, fmt.Sprintf(format, args...))
}

// setPaper records the paper's unfairness and weighted speedup
// (Section 6.2) for the workload's delivered Results.
func (b *bench) setPaper(unfairness, weightedSpeedup float64) {
	b.layer["experiments.unfairness"] = unfairness
	b.layer["experiments.weighted_speedup"] = weightedSpeedup
}

func (b *bench) tempDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(filepath.Join(workDir, "tmp"), prefix)
	if err == nil {
		b.tmpDirs = append(b.tmpDirs, dir)
	}
	return dir, err
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sim-stfm-16c, sim-caches-4c, matrix-fig9 or server-mixed")
		seed    = flag.Uint64("seed", 1, "workload seed (Config.Seed and the request generator)")
		seconds = flag.Float64("seconds", 15, "measurement time; a traced run splits it between an untraced and a traced half")
		traced  = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		record  = flag.String("record", "", "append this run's metrics as one JSON line to this file, for --compare")
		inject  = flag.Bool("inject-mismatch", false, "corrupt one oracle Result, to show the command fails on a wrong output")
		cmp     = flag.Bool("compare", false, "compare two --record files given as arguments: medians, quartiles and paired wins")
	)
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare takes two record files")
			os.Exit(2)
		}
		if err := compare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	mk, ok := registry[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(filepath.Join(workDir, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	b := &bench{seed: *seed, traced: *traced == 1, inject: *inject, layer: map[string]float64{}}
	code := run(ctx, b, *name, mk(), time.Duration(*seconds*float64(time.Second)), *record)
	stop()
	for _, d := range b.tmpDirs {
		os.RemoveAll(d)
	}
	os.Exit(code)
}

func run(ctx context.Context, b *bench, name string, w workload, measure time.Duration, recordPath string) int {
	if err := w.prepare(ctx, b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: prepare:", err)
		return 1
	}
	half := measure
	if b.traced {
		half = measure / 2
	}
	if err := b.loop(ctx, w, half, passUntraced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var cpu *cpuSplit
	var allocs map[string]int64
	if b.traced {
		var err error
		if cpu, allocs, err = b.tracedPasses(ctx, w, half); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	if err := w.check(ctx, b); err != nil {
		b.fail("check: %v", err)
	}
	digest := b.checkRepeats()

	var out map[string]float64
	if b.traced {
		out = b.perLayerMetrics(cpu, allocs)
	} else {
		out = b.endToEndMetrics()
	}
	failed := len(b.errs)
	correct := failed == 0
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", e)
	}
	b.printHuman(name, digest, out)
	if b.traced {
		path := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", name, b.seed))
		if err := b.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
		} else {
			fmt.Printf("# spans (Chrome trace_event JSON): %s\n", path)
		}
	}
	if recordPath != "" {
		if err := appendRecord(recordPath, record{Workload: name, Seed: b.seed, Trace: b.traced, Correct: correct, Metrics: out}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: record:", err)
		}
	}
	tab := endToEnd
	if b.traced {
		tab = perLayer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metricOut, len(tab))
	for _, d := range tab {
		ms[d.Name] = metricOut{out[d.Name], d.Unit}
	}
	attempted := max(b.ops, 1)
	line, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, attempted, failed, ms})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// tracedPasses runs the traced iterations: a CPU-profiled pass of
// duration d, then one iteration with every allocation recorded. The
// passes are apart because recording allocations slows the allocating
// code, which would inflate its layer's CPU share.
func (b *bench) tracedPasses(ctx context.Context, w workload, d time.Duration) (*cpuSplit, map[string]int64, error) {
	b.spans = newSpanLog()
	var prof bytes.Buffer
	// StartCPUProfile keeps a rate set beforehand (and prints a warning
	// that it could not set its own).
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	err := b.loop(ctx, w, d, passCPU)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	cpu, err := decodeCPUProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	before := takeAllocSnapshot()
	err = b.loop(ctx, w, 0, passAlloc)
	after := takeAllocSnapshot()
	runtime.MemProfileRate = rate
	if err != nil {
		return nil, nil, err
	}
	return cpu, allocsByLayer(before, after), nil
}

// loop runs iterations of one pass until d has been spent measuring, at
// least one.
func (b *bench) loop(ctx context.Context, w workload, d time.Duration, pass int) error {
	var spent time.Duration
	for n := 0; n == 0 || spent < d; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		it := &iter{pass: pass, layer: map[string]float64{}}
		var endIter func()
		it.root, endIter = b.spans.begin(0, 0, "iteration")
		runIt, teardown, err := b.setupMedian(ctx, w, it)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		syscall.Sync()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		peak := startHeapSampler()
		_, endRun := b.spans.begin(it.root, 0, "run")
		t1 := time.Now()
		err = runIt()
		it.wall = time.Since(t1)
		endRun()
		it.heapPeak = peak()
		runtime.ReadMemStats(&ms)
		it.mallocs = ms.Mallocs - m0
		teardown(err == nil)
		endIter()
		if err != nil {
			return fmt.Errorf("iteration %d: %w", n, err)
		}
		b.iters = append(b.iters, it)
		spent += it.setup + it.wall
	}
	return nil
}

// setupReps is how many times an iteration sets up; setup takes under a
// millisecond and swings with file-system latency, so one sample per
// iteration would make setup_s noisy. Each set-up and each run starts
// after a sync(2), so none pays for writing back the data an earlier
// one left dirty.
const setupReps = 5

// setupMedian sets up setupReps times, releases all but the last set-up
// and records the median duration as the iteration's setup time.
func (b *bench) setupMedian(ctx context.Context, w workload, it *iter) (func() error, func(bool), error) {
	var ds []float64
	var runIt func() error
	var teardown func(bool)
	for k := 0; k < setupReps; k++ {
		if teardown != nil {
			teardown(false)
		}
		syscall.Sync()
		runtime.GC()
		_, end := b.spans.begin(it.root, 0, "setup")
		t := time.Now()
		var err error
		runIt, teardown, err = w.setup(ctx, b, it)
		ds = append(ds, time.Since(t).Seconds())
		end()
		if err != nil {
			return nil, nil, err
		}
	}
	it.setup = time.Duration(median(ds) * float64(time.Second))
	return runIt, teardown, nil
}

// startHeapSampler polls the live heap every millisecond until the
// returned function is called, which stops the poller, waits for it and
// returns the highest heap-objects byte count seen.
func startHeapSampler() func() uint64 {
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-stop:
				done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-done
	}
}

// checkRepeats asserts every iteration, traced ones included, delivered
// Results reflect.DeepEqual to the first iteration's, and returns the
// SHA-256 digest of the first iteration's Results.
func (b *bench) checkRepeats() string {
	if len(b.iters) == 0 {
		return ""
	}
	first := b.iters[0].results
	for n, it := range b.iters[1:] {
		b.addOps(1)
		if !reflect.DeepEqual(it.results, first) {
			b.fail("iteration %d (pass %d): Results differ from iteration 0", n+1, it.pass)
		}
	}
	h := sha256.New()
	for _, r := range first {
		if err := json.NewEncoder(h).Encode(r); err != nil {
			b.fail("digest: %v", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (b *bench) pass(p int) []*iter {
	var out []*iter
	for _, it := range b.iters {
		if it.pass == p {
			out = append(out, it)
		}
	}
	return out
}

func (b *bench) endToEndMetrics() map[string]float64 {
	its := b.pass(passUntraced)
	var setup, wall, rate, allocs, heap, jps []float64
	var jobs []time.Duration
	for _, it := range its {
		setup = append(setup, it.setup.Seconds())
		wall = append(wall, it.wall.Seconds())
		rate = append(rate, float64(it.cycles)/it.wall.Seconds())
		allocs = append(allocs, float64(it.mallocs)/float64(max(it.requests, 1)))
		heap = append(heap, float64(it.heapPeak)/1e6)
		jps = append(jps, float64(len(it.jobs))/it.wall.Seconds())
		jobs = append(jobs, it.jobs...)
	}
	lat := msOf(jobs)
	return map[string]float64{
		"setup_s":                 median(setup),
		"wall_s":                  median(wall),
		"sim_cycles_per_s":        median(rate),
		"host_allocs_per_request": median(allocs),
		"heap_peak_mb":            median(heap),
		"job_latency_p50_ms":      percentile(lat, 50),
		"job_latency_p95_ms":      percentile(lat, 95),
		"jobs_per_s":              median(jps),
	}
}

func (b *bench) perLayerMetrics(cpu *cpuSplit, allocs map[string]int64) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	traced := b.pass(passCPU)
	var requests, instructions int64
	var twall, uwall []float64
	for _, it := range traced {
		requests += it.requests
		instructions += it.instructions
		twall = append(twall, it.wall.Seconds())
	}
	for _, it := range b.pass(passUntraced) {
		uwall = append(uwall, it.wall.Seconds())
	}
	out["bench.trace_overhead"] = median(twall) / median(uwall)
	out["bench.cpu_samples"] = float64(cpu.Samples)
	for _, l := range layers {
		out[l+".cpu_share"] = ratio(cpu.NS[l], cpu.TotalNS)
	}
	out["memctrl.host_ns_per_request"] = ratio(cpu.NS["memctrl"], requests)
	out["cpu.host_ns_per_kinstr"] = 1000 * ratio(cpu.NS["cpu"], instructions)
	if a := b.pass(passAlloc); len(a) > 0 {
		for _, l := range []string{"memctrl", "cpu", "sim", "cache"} {
			out[l+".allocs_per_request"] = ratio(allocs[l], a[0].requests)
		}
	}
	// Simulated counts repeat exactly across iterations; take the last.
	if n := len(traced); n > 0 {
		for k, v := range traced[n-1].layer {
			out[k] = v
		}
	}
	for k, v := range b.layer {
		out[k] = v
	}
	return out
}

// printHuman prints the run's figures as comment lines ahead of the JSON
// result line: every metric with its unit, the sample counts behind the
// latency percentiles, the error rate and the Result digest.
func (b *bench) printHuman(name, digest string, out map[string]float64) {
	its := b.pass(passUntraced)
	var jobs int
	for _, it := range its {
		jobs += len(it.jobs)
	}
	fmt.Printf("# workload %s seed %d traced=%v iterations untraced=%d traced=%d\n", name, b.seed, b.traced, len(its), len(b.pass(passCPU)))
	if p, ok := supportedPercentile(jobs); ok {
		fmt.Printf("# job latency samples %d: highest percentile with >=10 samples beyond it is p%g\n", jobs, p)
	} else {
		fmt.Printf("# job latency samples %d: fewer than 20, so no percentile has 10 samples beyond it\n", jobs)
	}
	fmt.Printf("# result digest sha256:%s\n", digest)
	fmt.Printf("# error_rate %d/%d = %.4g\n", len(b.errs), max(b.ops, 1), float64(len(b.errs))/float64(max(b.ops, 1)))
	tab := endToEnd
	if b.traced {
		tab = append([]metricDef(nil), perLayer...)
		sort.Slice(tab, func(i, j int) bool { return tab[i].Name < tab[j].Name })
	}
	for _, d := range tab {
		fmt.Printf("# %-34s %14.6g %s\n", d.Name, out[d.Name], d.Unit)
	}
}

// dirKB is the total size of the regular files under dir in KiB.
func dirKB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / 1024
}

// short abbreviates a benchmark list for span names.
func short(names []string) string { return strings.Join(names, "+") }
