package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, med, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Fatalf("two-point quartiles = %v %v %v", q1, med, q3)
	}
	if median([]float64{3, 1, 2, 4}) != 2.5 {
		t.Fatal("median of an even count is the mean of the middle pair")
	}
}

// TestSupportedPercentile pins the reporting rule: the highest percentile
// with at least ten samples beyond it.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{99, 75, true}, {100, 90, true}, {199, 90, true}, {200, 95, true},
		{999, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := supportedPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.want, c.ok)
		}
	}
	// Nearest rank: with 200 samples p95 is the 190th, leaving 10 above.
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(200 - i)
	}
	if got := percentile(vals, 95); got != 190 {
		t.Fatalf("p95 of 1..200 = %v, want 190", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs enforces the metric grammar: a name starts with a letter or
// digit and has at most 64 letters, digits, '_', '.' and '-'; a unit has
// at most 16 letters, digits, '_', '/', '%', '.' and '-'; names are
// unique; Better is "lower" or "higher".
func checkDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		switch {
		case !nameRE.MatchString(d.Name):
			return fmt.Errorf("metric name %q breaks the name grammar", d.Name)
		case !unitRE.MatchString(d.Unit):
			return fmt.Errorf("metric %s: unit %q breaks the unit grammar", d.Name, d.Unit)
		case d.Better != "lower" && d.Better != "higher":
			return fmt.Errorf("metric %s: better must be lower or higher, not %q", d.Name, d.Better)
		case seen[d.Name]:
			return fmt.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

func TestMetricGrammar(t *testing.T) {
	if err := checkDefs(endToEnd); err != nil {
		t.Fatal(err)
	}
	if err := checkDefs(perLayer); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []metricDef{
		{"_lead", "s", "lower"},
		{"has space", "s", "lower"},
		{strings.Repeat("x", 65), "s", "lower"},
		{"ok", "unit with space", "lower"},
		{"ok", strings.Repeat("u", 17), "lower"},
		{"ok", "s", "sideways"},
	} {
		if checkDefs([]metricDef{bad}) == nil {
			t.Errorf("%+v passed the grammar", bad)
		}
	}
	if checkDefs([]metricDef{{"a", "s", "lower"}, {"a", "s", "lower"}}) == nil {
		t.Error("a duplicate name passed")
	}
	if err := checkDefs(append(append([]metricDef(nil), endToEnd...), perLayer...)); err != nil {
		t.Errorf("end-to-end and per-layer names collide: %v", err)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which declares the
// benchmark to the tools that run it, in step with the metric tables the
// command prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the tables %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	var setupBound, maxBound float64
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for i, m := range doc.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, m, perLayer[i])
		}
	}
	if len(doc.Workloads) != len(registry) {
		t.Errorf("BENCHMARK.json names %d workloads, the command runs %d", len(doc.Workloads), len(registry))
	}
	for _, w := range doc.Workloads {
		if registry[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

func TestPackageBucketing(t *testing.T) {
	for fn, want := range map[string]string{
		"stfm/internal/memctrl.(*Controller).Tick":              "memctrl",
		"stfm/internal/memctrl/policy.(*NFQ).Less":              "policy",
		"stfm/internal/core.(*STFM).OnSchedule":                 "core",
		"stfm/internal/trace.(*Generator).Next":                 "trace",
		"stfm/internal/workloads.SampleFourCore":                "trace",
		"stfm/internal/metrics.Unfairness":                      "experiments",
		"stfm/internal/sim.(*System).RunContext.func1":          "sim",
		"stfm/internal/service.(*Server).Submit":                "service",
		"stfm/internal/telemetry.(*Series).Append":              "telemetry",
		"stfm/internal/experiments.(*Runner).RunMatrix[...]":    "experiments",
		"stfm/internal/experiments.do[go.shape.struct { a/b }]": "experiments",
		"stfm.Run":                 "sim",
		"main.(*probeStream).Next": "bench",
		"runtime.mallocgc":         "",
		"net/http.(*conn).serve":   "",
		"stfm/internal/docgate.X":  "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	// A stack is charged to its leaf-most repository frame.
	if got := bucket([]string{"runtime.mallocgc", "runtime.newobject", "stfm/internal/cache.(*Hierarchy).Load", "stfm/internal/cpu.(*Core).Tick"}); got != "cache" {
		t.Errorf("bucket = %q, want cache", got)
	}
	if got := bucket([]string{"runtime.gcBgMarkWorker"}); got != "runtime" {
		t.Errorf("bucket = %q, want runtime", got)
	}
}

var spinSink uint64

// spin burns CPU in this package. The accumulator is local so the race
// detector adds no calls into its C runtime, whose frames the profiler
// cannot unwind through.
func spin(d time.Duration) {
	x := uint64(1)
	for t := time.Now(); time.Since(t) < d; {
		for i := uint64(0); i < 100000; i++ {
			x = x*6364136223846793005 + i
		}
	}
	spinSink = x
}

// TestDecodeCPUProfile profiles a busy loop in this package and checks
// the decoder charges it to the benchmark's own layer.
func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	split, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if split.Samples < 10 || split.TotalNS <= 0 {
		t.Fatalf("only %d samples (%d ns)", split.Samples, split.TotalNS)
	}
	if share := float64(split.NS["bench"]) / float64(split.TotalNS); share < 0.5 {
		t.Fatalf("bench share %.2f of a busy loop in this package; split %v", share, split.NS)
	}
	if _, err := decodeCPUProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

var allocSink []*[64]byte

func TestAllocsByLayer(t *testing.T) {
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = rate }()
	before := takeAllocSnapshot()
	for i := 0; i < 1000; i++ {
		allocSink = append(allocSink, new([64]byte))
	}
	allocSink = nil
	got := allocsByLayer(before, takeAllocSnapshot())
	if got["bench"] < 1000 {
		t.Fatalf("bench allocations = %d, want >= 1000 (split %v)", got["bench"], got)
	}
}

func TestSpanLogWritesTraceEvents(t *testing.T) {
	l := newSpanLog()
	root, end := l.begin(0, 0, "iteration")
	_, endChild := l.begin(root, 1, "child")
	endChild()
	end()
	l.add(root, 2, "measured", time.Now().Add(-time.Millisecond), time.Now())
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := l.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args map[string]float64
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[1].Args["parent"] != float64(root) || doc.TraceEvents[0].Ph != "X" {
		t.Fatalf("events = %+v", doc.TraceEvents)
	}
	var nilLog *spanLog
	if _, end := nilLog.begin(0, 0, "x"); end == nil {
		t.Fatal("nil log must still return a closer")
	}
}

func TestCompareCountsPairedWins(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	for seed := uint64(1); seed <= 4; seed++ {
		if err := appendRecord(a, record{Workload: "w", Seed: seed, Metrics: map[string]float64{"wall_s": 2, "jobs_per_s": 5}}); err != nil {
			t.Fatal(err)
		}
		wall := 1.0
		if seed == 4 {
			wall = 2 // a tie counts for neither side
		}
		if err := appendRecord(b, record{Workload: "w", Seed: seed, Metrics: map[string]float64{"wall_s": wall, "jobs_per_s": 4}}); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := compare(&out, a, b); err != nil {
		t.Fatal(err)
	}
	lines := out.String()
	if !strings.Contains(lines, "wall_s (s)") || !strings.Contains(lines, " 3/4\n") || !strings.Contains(lines, " 0/4\n") {
		t.Fatalf("compare output:\n%s", lines)
	}
}
