package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// quartiles returns the first quartile, the median and the third
// quartile of vals by the rule Python's statistics.quantiles(vals, n=4)
// uses (the "exclusive" method), so spreads printed here match the ones
// computed over the benchmark's result lines.
func quartiles(vals []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	ld, n := len(d), 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// median is the middle of vals (the mean of the two middle values for an
// even count).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	h := len(d) / 2
	if len(d)%2 == 1 {
		return d[h]
	}
	return (d[h-1] + d[h]) / 2
}

// percentile is the nearest-rank p-th percentile of vals (p in (0,100]):
// the smallest sample with at least p percent of the samples at or below
// it.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	rank := nearestRank(p, len(d))
	return d[max(1, min(rank, len(d)))-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples,
// ceil(p/100*n), computed so that an exact product such as 99.9% of
// 10000 is not pushed up by rounding.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// reportedPercentiles are the tail percentiles the benchmark may state.
var reportedPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// supportedPercentile is the highest of reportedPercentiles that has at
// least ten of n samples beyond it; ok is false when not even the median
// has (fewer than 20 samples).
func supportedPercentile(n int) (p float64, ok bool) {
	for _, c := range reportedPercentiles {
		if n-nearestRank(c, n) >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// record is one benchmark invocation as appended to a --record file.
type record struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    bool               `json:"trace"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]float64 `json:"metrics"`
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compare prints, per workload and metric, each side's median and
// quartiles over its runs and the share of paired runs B won (ties count
// for neither side). Runs pair by seed; both files must come from the
// same machine, since nothing here is compared against a recorded
// constant.
func compare(w io.Writer, aPath, bPath string) error {
	a, err := readRecords(aPath)
	if err != nil {
		return err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return err
	}
	type key struct {
		workload string
		trace    bool
	}
	group := func(rs []record) map[key]map[uint64]record {
		g := map[key]map[uint64]record{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			if g[k] == nil {
				g[k] = map[uint64]record{}
			}
			g[k][r.Seed] = r
		}
		return g
	}
	ga, gb := group(a), group(b)
	var keys []key
	for k := range ga {
		if gb[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	if len(keys) == 0 {
		return fmt.Errorf("no workload appears in both %s and %s", aPath, bPath)
	}
	fmt.Fprintf(w, "%-14s %-5s %-34s %-38s %-38s %s\n", "workload", "trace", "metric", "A median [q1 q3]", "B median [q1 q3]", "B wins")
	for _, k := range keys {
		var seeds []uint64
		for s := range ga[k] {
			if _, ok := gb[k][s]; ok {
				seeds = append(seeds, s)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		tab := endToEnd
		if k.trace {
			tab = perLayer
		}
		for _, d := range tab {
			var av, bv []float64
			wins := 0
			for _, s := range seeds {
				x, okx := ga[k][s].Metrics[d.Name]
				y, oky := gb[k][s].Metrics[d.Name]
				if !okx || !oky {
					continue
				}
				av, bv = append(av, x), append(bv, y)
				if (d.Better == "lower" && y < x) || (d.Better == "higher" && y > x) {
					wins++
				}
			}
			if len(av) == 0 {
				continue
			}
			a1, am, a3 := quartiles(av)
			b1, bm, b3 := quartiles(bv)
			fmt.Fprintf(w, "%-14s %-5v %-34s %-38s %-38s %d/%d\n", k.workload, k.trace, d.Name+" ("+d.Unit+")",
				fmt.Sprintf("%.6g [%.6g %.6g]", am, a1, a3), fmt.Sprintf("%.6g [%.6g %.6g]", bm, b1, b3), wins, len(av))
		}
	}
	return nil
}
