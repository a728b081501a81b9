package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"stfm/internal/dram"
	"stfm/internal/sim"
	"stfm/internal/store"
	"stfm/internal/workloads"
)

// TestBaselineSingleflight pins the store's per-key deduplication:
// many goroutines asking for the same baseline must trigger exactly one
// compute, and all of them must receive that one result.
func TestBaselineSingleflight(t *testing.T) {
	r := NewRunner(Options{InstrTarget: 15_000, Seed: 1})
	profs, err := Profiles("mcf")
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.aloneConfig(1)
	key := BaselineKey(cfg, profs[0].Name)
	var computes atomic.Int64
	const callers = 16
	results := make([]*sim.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.baseline.Do(context.Background(), key, func() (*sim.Result, error) {
				computes.Add(1)
				return sim.Run(cfg, profs)
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times, want exactly 1", got)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Errorf("caller %d got a different Result pointer", i)
		}
	}
	st := r.baseline.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", st, callers-1)
	}
}

// TestBaselineComputeFailureDoesNotPoison pins the retry semantics: a
// failed compute surfaces its error to the caller that ran it, and the
// next caller for the same key computes again instead of inheriting the
// failure.
func TestBaselineComputeFailureDoesNotPoison(t *testing.T) {
	s, err := NewBaselineStore("")
	if err != nil {
		t.Fatal(err)
	}
	key := BaselineKey(sim.DefaultConfig(sim.PolicyFRFCFS, 1), "mcf")
	boom := errors.New("boom")
	if _, err := s.Do(context.Background(), key, func() (*sim.Result, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("computing caller got %v, want boom", err)
	}
	want := &sim.Result{Threads: []sim.ThreadResult{{}}}
	got, err := s.Do(context.Background(), key, func() (*sim.Result, error) {
		return want, nil
	})
	if err != nil || got != want {
		t.Fatalf("retry after failure got (%v, %v), want the fresh result", got, err)
	}
}

// TestBaselineDiskSharing pins the cross-process contract: a second
// store (standing in for a second process) pointed at the same
// directory serves the first store's spilled baselines as hits, and the
// loaded Results are bit-identical to the computed ones.
func TestBaselineDiskSharing(t *testing.T) {
	dir := t.TempDir()
	r1 := NewRunner(Options{InstrTarget: 15_000, Seed: 1, BaselineDir: dir})
	profs, err := Profiles("mcf", "libquantum")
	if err != nil {
		t.Fatal(err)
	}
	var first []sim.ThreadResult
	for _, p := range profs {
		a, err := r1.Alone(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, a)
	}
	if st := r1.Baseline().Stats(); st.Misses != int64(len(profs)) {
		t.Fatalf("first runner stats = %+v, want %d misses", st, len(profs))
	}

	r2 := NewRunner(Options{InstrTarget: 15_000, Seed: 1, BaselineDir: dir})
	for i, p := range profs {
		a, err := r2.Alone(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, first[i]) {
			t.Errorf("%s: disk-loaded baseline differs from computed", p.Name)
		}
	}
	st := r2.Baseline().Stats()
	if st.Hits != int64(len(profs)) || st.Misses != 0 {
		t.Errorf("second runner stats = %+v, want %d pure hits", st, len(profs))
	}
}

// TestBaselineCorruptionQuarantine pins quarantine-as-miss: damaged
// spill files — truncated, bit-flipped, wrong version, checksum
// mismatch, wrong thread count — are renamed to .corrupt and recomputed,
// never served.
func TestBaselineCorruptionQuarantine(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(Options{InstrTarget: 15_000, Seed: 1, BaselineDir: dir})
	profs, err := Profiles("mcf")
	if err != nil {
		t.Fatal(err)
	}
	good, err := r.Alone(profs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	key := BaselineKey(r.aloneConfig(1), profs[0].Name)
	path := filepath.Join(dir, key+".json")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"bitflip":    func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)/2] ^= 0x40; return c },
		"garbage":    func([]byte) []byte { return []byte("not json at all") },
		"badversion": func(b []byte) []byte { return reenvelope(t, b, func(e *store.Envelope) { e.V = 99 }) },
		"badsum": func(b []byte) []byte {
			return reenvelope(t, b, func(e *store.Envelope) { e.Sum = "00" + e.Sum[2:] })
		},
	}
	for name, mangle := range damage {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mangle(pristine), 0o644); err != nil {
				t.Fatal(err)
			}
			// A fresh store (cold memory) must refuse the damaged entry,
			// quarantine it, and recompute an identical baseline.
			r2 := NewRunner(Options{InstrTarget: 15_000, Seed: 1, BaselineDir: dir})
			a, err := r2.Alone(profs[0], 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, good) {
				t.Error("recomputed baseline differs from the original")
			}
			if st := r2.Baseline().Stats(); st.Misses != 1 || st.Hits != 0 {
				t.Errorf("stats = %+v, want the damaged entry to count as a miss", st)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Errorf("damaged entry not quarantined: %v", err)
			}
			os.Remove(path + ".corrupt")
		})
	}
}

// parentBaseline is the alone-run Result behind the testdata/baseline-v1
// fixture, which the pre-store BaselineStore spilled under
// BaselineKey(parentBaselineConfig(), "mcf").
var parentBaseline = &sim.Result{
	Policy: sim.PolicyFRFCFS,
	Threads: []sim.ThreadResult{
		{Benchmark: "mcf", Instructions: 10_000, Cycles: 61_729, MemStallCycles: 49_383, IPC: 0.162, MCPI: 4.9383, DRAMReads: 1_234, DRAMWrites: 56, RowHitRate: 0.25, AvgReadLatency: 256.125, P95ReadLatency: 512, P99ReadLatency: 1024},
	},
	TotalCycles:    61_729,
	BusUtilization: 0.3125,
}

func parentBaselineConfig() sim.Config {
	cfg := sim.DefaultConfig(sim.PolicyFRFCFS, 1)
	cfg.InstrTarget = 10_000
	cfg.Seed = 1
	return cfg
}

// TestBaselineParentFixtureHits pins disk-layout compatibility: an
// entry spilled by the pre-store BaselineStore (testdata/baseline-v1)
// must still hit under its recomputed BaselineKey, decode to the Result
// it was written from, and re-encode to the same bytes — so
// -baseline-dir directories written before the stores were unified
// keep serving.
func TestBaselineParentFixtureHits(t *testing.T) {
	key := BaselineKey(parentBaselineConfig(), "mcf")
	fixture, err := os.ReadFile(filepath.Join("testdata", "baseline-v1", key+".json"))
	if err != nil {
		t.Fatalf("no fixture under the recomputed key (key grammar changed?): %v", err)
	}
	dir := t.TempDir() // a failed load would quarantine the fixture
	if err := os.WriteFile(filepath.Join(dir, key+".json"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewBaselineStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("parent-commit baseline entry missed")
	}
	if !reflect.DeepEqual(got, parentBaseline) {
		t.Errorf("parent-commit entry decoded to\n%+v\nwant\n%+v", got, parentBaseline)
	}
	enc, err := store.Encode(parentBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, fixture) {
		t.Errorf("envelope encoding drifted from the parent's:\ngot  %s\nwant %s", enc, fixture)
	}
}

// TestBaselineMultiThreadEntryQuarantined pins the baseline store's
// shape rule: a correctly checksummed entry whose Result has more than
// one thread is not an alone run, so it is quarantined and misses —
// while the same bytes are a valid result-cache entry.
func TestBaselineMultiThreadEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	key := BaselineKey(parentBaselineConfig(), "mcf")
	shared := *parentBaseline
	shared.Threads = append(append([]sim.ThreadResult(nil), shared.Threads...), shared.Threads[0])
	data, err := store.Encode(&shared)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Decode(data, nil); err != nil {
		t.Fatalf("two-thread envelope is not valid without the shape rule: %v", err)
	}
	s, err := NewBaselineStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("two-thread entry served as an alone baseline")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("two-thread entry not quarantined: %v", err)
	}
}

// reenvelope decodes, mutates, and re-encodes a spilled envelope.
func reenvelope(t *testing.T, data []byte, mutate func(*store.Envelope)) []byte {
	t.Helper()
	var env store.Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	mutate(&env)
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzBaselineDecode fuzzes the store's envelope decoder, seeded with
// a result-cache envelope (two threads) and a baseline envelope (one
// thread): arbitrary bytes must produce an error or a Result, never a
// panic; under the baseline store's shape rule an accepted Result has
// exactly one thread; and an accepted envelope re-encodes to bytes
// that decode to the same Result.
func FuzzBaselineDecode(f *testing.F) {
	alone := &sim.Result{Threads: []sim.ThreadResult{{Instructions: 1000, Cycles: 2000}}}
	valid, err := store.Encode(alone)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"v":1,"sum":"","result":null}`))
	f.Add([]byte(`{"v":2}`))
	f.Add([]byte(``))
	f.Add(valid[:len(valid)/2])
	shared := &sim.Result{Policy: sim.PolicySTFM, Threads: []sim.ThreadResult{{Benchmark: "mcf"}, {Benchmark: "libquantum"}}}
	cacheEntry, err := store.Encode(shared)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cacheEntry)
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := store.Decode(data, nil)
		if err != nil {
			return
		}
		again, err := store.Encode(res)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := store.Decode(again, nil); err != nil || !reflect.DeepEqual(back, res) {
			t.Errorf("re-encoded envelope does not round-trip: %v", err)
		}
		if res, err := store.Decode(data, checkAlone); err == nil && len(res.Threads) != 1 {
			t.Errorf("baseline decoder accepted a Result with %d threads", len(res.Threads))
		}
	})
}

// TestForkMatrixEquivalence is the fork planner's oracle: a
// ForkWarmup matrix must produce, for every cell, a Result bit-identical
// to the cold path running the same cells with ForkAtCycle set, and
// identical derived metrics. It covers a small 4-core grid plus the
// fig5 (25 mixes x 2 policies) and protocols (4 mixes x 2 policies x 5
// packs) matrices, each protocol plane under its own Options.Protocol.
// Every mix's FR-FCFS run must outlast the fork cycle, so no case can
// quietly degenerate into cells that never switch policy. On fig5 a
// second fork pass, against a fresh store opened on the directory the
// first pass spilled to, must serve every alone baseline from disk (no
// misses) and reproduce every cell.
func TestForkMatrixEquivalence(t *testing.T) {
	matrix := func(id string) MatrixSpec {
		spec, err := MatrixByID(id)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	cases := []struct {
		name       string
		spec       MatrixSpec
		instrs     int64
		warmup     int64
		secondPass bool
	}{
		{"sample4", MatrixSpec{
			Mixes:    workloads.SampleFourCore()[:2],
			Policies: []sim.PolicyKind{sim.PolicyFRFCFS, sim.PolicySTFM, sim.PolicyNFQ},
		}, 15_000, 60_000, false},
		{"fig5", matrix("fig5"), 10_000, 20_000, true},
		{"protocols", matrix("protocols"), 10_000, 20_000, false},
	}
	type plane = []map[sim.PolicyKind]*WorkloadResult
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			protocols := tc.spec.Protocols
			if len(protocols) == 0 {
				protocols = []dram.Protocol{""}
			}
			dir := t.TempDir()
			shared, err := NewBaselineStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			// pass runs every protocol plane of the grid against store:
			// fork-planned, or as the scratch oracle — cold per-cell runs
			// of the SAME simulation, ForkAtCycle/WarmupPolicy in the
			// config and no checkpointing.
			pass := func(store *BaselineStore, fork bool) []plane {
				var planes []plane
				for _, proto := range protocols {
					opts := Options{InstrTarget: tc.instrs, Seed: 1, Protocol: proto, Baseline: store}
					var mutate func(*sim.Config)
					if fork {
						opts.ForkWarmup = tc.warmup
					} else {
						mutate = func(cfg *sim.Config) {
							cfg.ForkAtCycle = tc.warmup
							cfg.WarmupPolicy = sim.PolicyFRFCFS
						}
					}
					res, err := NewRunner(opts).RunMatrix(tc.spec.Mixes, tc.spec.Policies, mutate)
					if err != nil {
						t.Fatal(err)
					}
					planes = append(planes, res)
				}
				return planes
			}
			forked := pass(shared, true)
			cold := pass(shared, false)

			for pi, proto := range protocols {
				for i, mix := range tc.spec.Mixes {
					if c := cold[pi][i][sim.PolicyFRFCFS]; c == nil || c.Result.TotalCycles <= tc.warmup {
						t.Fatalf("%s/%s: the FR-FCFS run does not outlast the fork cycle %d", proto, mix.Name, tc.warmup)
					}
					for _, pol := range tc.spec.Policies {
						f, c := forked[pi][i][pol], cold[pi][i][pol]
						if f == nil || c == nil {
							t.Fatalf("%s/%s/%s: missing cell (fork=%v cold=%v)", proto, mix.Name, pol, f != nil, c != nil)
						}
						if !reflect.DeepEqual(f.Result, c.Result) {
							t.Errorf("%s/%s/%s: forked Result differs from scratch oracle", proto, mix.Name, pol)
						}
						if !reflect.DeepEqual(f, c) {
							t.Errorf("%s/%s/%s: forked WorkloadResult (metrics) differs from scratch oracle", proto, mix.Name, pol)
						}
					}
				}
			}
			if !tc.secondPass {
				return
			}
			reopened, err := NewBaselineStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			again := pass(reopened, true)
			if st := reopened.Stats(); st.Misses != 0 || st.Hits == 0 {
				t.Errorf("second pass: %d baseline hits, %d misses; want every baseline served from the first pass's spill", st.Hits, st.Misses)
			}
			if !reflect.DeepEqual(again, forked) {
				t.Error("second fork pass, served from the baseline store, changed a cell")
			}
		})
	}
}

// TestForkMatrixIsolatesWarmupFailure pins fork-group error handling: a
// mix whose warm-up cannot even construct (here: a mutate that breaks
// validation for one mix's core count) fails every cell of that group
// with an annotated JobError while other groups complete.
func TestForkMatrixIsolatesWarmupFailure(t *testing.T) {
	mixes := workloads.SampleFourCore()[:2]
	opts := Options{InstrTarget: 10_000, Seed: 1, ForkWarmup: 1000}
	calls := 0
	var mu sync.Mutex
	res, err := NewRunner(opts).RunMatrix(mixes, []sim.PolicyKind{sim.PolicyFRFCFS}, func(cfg *sim.Config) {
		mu.Lock()
		calls++
		mine := calls
		mu.Unlock()
		if mine == 1 {
			cfg.InstrTarget = -1 // fails Validate inside NewSystem
		}
	})
	if err == nil {
		t.Fatal("broken warm-up must surface in the joined error")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("error %v does not unwrap to *JobError", err)
	}
	survivors := 0
	for i := range mixes {
		if res[i][sim.PolicyFRFCFS] != nil {
			survivors++
		}
	}
	if survivors != 1 {
		t.Errorf("%d groups survived, want exactly 1 (the unbroken mix)", survivors)
	}
}

// TestForkMatrixPanicIsolated pins that a panic inside a fork group is
// recovered into a JobError with a stack, like the cold path's cells.
func TestForkMatrixPanicIsolated(t *testing.T) {
	mixes := workloads.SampleFourCore()[:2]
	opts := Options{InstrTarget: 10_000, Seed: 1, ForkWarmup: 1000}
	calls := 0
	var mu sync.Mutex
	_, err := NewRunner(opts).RunMatrix(mixes, []sim.PolicyKind{sim.PolicyFRFCFS}, func(cfg *sim.Config) {
		mu.Lock()
		calls++
		mine := calls
		mu.Unlock()
		if mine == 2 {
			panic(fmt.Sprintf("boom in group %d", mine))
		}
	})
	if err == nil {
		t.Fatal("panicking group must surface in the joined error")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("error %v does not unwrap to *JobError", err)
	}
	if len(je.Stack) == 0 {
		t.Error("recovered panic carries no stack")
	}
}
