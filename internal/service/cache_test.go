package service

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stfm/internal/sim"
	"stfm/internal/store"
)

func sampleResult() *sim.Result {
	return &sim.Result{
		Policy: sim.PolicySTFM,
		Threads: []sim.ThreadResult{
			{Benchmark: "mcf", Instructions: 300_000, Cycles: 1_000_000, IPC: 0.3, AvgReadLatency: 512.25},
		},
		TotalCycles:    1_000_000,
		BusUtilization: 0.5,
	}
}

func TestCacheMemory(t *testing.T) {
	c, err := openResultCache("", nil)
	if err != nil {
		t.Fatal(err)
	}
	key := Key(sim.DefaultConfig(sim.PolicySTFM, 2), []string{"mcf", "libquantum"})
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	res := sampleResult()
	if err := c.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || !reflect.DeepEqual(got, res) {
		t.Fatalf("Get after Put: ok=%v got=%+v", ok, got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || c.Len() != 1 {
		t.Errorf("stats = %d hits %d misses %d entries, want 1/1/1", st.Hits, st.Misses, c.Len())
	}
}

// TestCacheDiskSpillSurvivesRestart: a fresh result cache over the same
// directory — a restarted server — serves entries the previous
// instance computed, exactly.
func TestCacheDiskSpillSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	key := Key(sim.DefaultConfig(sim.PolicyFRFCFS, 2), []string{"mcf", "libquantum"})
	res := sampleResult()

	first, err := openResultCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Put(key, res); err != nil {
		t.Fatal(err)
	}

	second, err := openResultCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := second.Get(key)
	if !ok {
		t.Fatal("restarted cache missed a spilled entry")
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("spilled result drifted:\ngot  %+v\nwant %+v", got, res)
	}
}

// TestCacheCorruptSpillDegradesToMiss: a truncated spill file must
// read as a miss, never an error or a bad result.
func TestCacheCorruptSpillDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	key := Key(sim.DefaultConfig(sim.PolicyNFQ, 2), []string{"mcf"})
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte(`{"policy": tru`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := openResultCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt spill entry served as a hit")
	}
}

// TestKeyDistinguishesWorkloads: the content address covers both the
// config and the ordered benchmark list.
func TestKeyDistinguishesWorkloads(t *testing.T) {
	cfg := sim.DefaultConfig(sim.PolicySTFM, 2)
	base := Key(cfg, []string{"mcf", "libquantum"})
	if Key(cfg, []string{"libquantum", "mcf"}) == base {
		t.Error("workload order does not change the key (it assigns cores)")
	}
	if Key(cfg, []string{"mcf"}) == base {
		t.Error("workload size does not change the key")
	}
	cfg2 := cfg
	cfg2.Seed = 99
	if Key(cfg2, []string{"mcf", "libquantum"}) == base {
		t.Error("config changes do not change the key")
	}
}

// TestCacheEnvelopeDetectsBitFlip: a single flipped bit inside a
// spilled entry's result bytes — silent at-rest corruption that still
// parses as JSON — must fail the checksum, quarantine the entry as
// .corrupt, and read as a miss.
func TestCacheEnvelopeDetectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	key := Key(sim.DefaultConfig(sim.PolicySTFM, 2), []string{"mcf"})
	first, err := openResultCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Put(key, sampleResult()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the result payload (past the envelope header),
	// choosing an offset that keeps the JSON structurally valid.
	i := bytes.Index(raw, []byte(`"instructions"`))
	if i < 0 {
		t.Fatalf("envelope has no result payload: %s", raw)
	}
	raw[i+len(`"instructions":3`)] ^= 0x01 // 300000 -> 200000 or 100000
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	second, err := openResultCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := second.Get(key); ok {
		t.Fatal("bit-flipped entry served as a hit")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt entry not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry still present under its live name")
	}
}

// TestCacheZeroLengthEntryQuarantined: an empty spill file (e.g. from
// an interrupted copy) is quarantined and misses.
func TestCacheZeroLengthEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	key := Key(sim.DefaultConfig(sim.PolicySTFM, 2), []string{"libquantum"})
	path := filepath.Join(dir, key+".json")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := openResultCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("zero-length entry served as a hit")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("zero-length entry not quarantined: %v", err)
	}
}

// TestCacheTruncatedEntryQuarantined: a spill cut short mid-envelope
// misses and quarantines.
func TestCacheTruncatedEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	key := Key(sim.DefaultConfig(sim.PolicyFRFCFS, 2), []string{"mcf"})
	c1, err := openResultCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(key, sampleResult()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := openResultCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("truncated entry not quarantined: %v", err)
	}
}

// TestCacheChaosFaults: the injection points on the spill path — an
// injected Put corruption is caught on the next load, an injected Get
// error degrades to a miss, and an injected Put error is surfaced for
// logging while the in-memory entry still serves.
func TestCacheChaosFaults(t *testing.T) {
	dir := t.TempDir()
	key := Key(sim.DefaultConfig(sim.PolicyPARBS, 2), []string{"mcf"})
	c1, err := openResultCache(dir, NewChaos(ChaosRule{Point: "cache.put", Visit: 1, Action: ActionCorrupt}))
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(key, sampleResult()); err != nil {
		t.Fatal(err) // the corrupted spill itself succeeds
	}
	if _, ok := c1.Get(key); !ok {
		t.Fatal("in-memory entry lost")
	}

	c2, err := openResultCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key); ok {
		t.Fatal("corrupted spill served as a hit on reload")
	}

	c3, err := openResultCache(dir, NewChaos(ChaosRule{Point: "cache.put", Visit: 1, Action: ActionError}))
	if err != nil {
		t.Fatal(err)
	}
	if err := c3.Put(key, sampleResult()); err == nil {
		t.Fatal("injected Put error not surfaced")
	}
	if _, ok := c3.Get(key); !ok {
		t.Fatal("in-memory entry must survive a failed spill")
	}

	// The load side: an injected read error is a plain miss that leaves
	// the entry in place; an injected read corruption quarantines it.
	if err := c3.Put(key, sampleResult()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".json")
	chaos := NewChaos(
		ChaosRule{Point: "cache.get", Visit: 1, Action: ActionError},
		ChaosRule{Point: "cache.get", Visit: 2, Action: ActionCorrupt},
	)
	c4, err := openResultCache(dir, chaos)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c4.Get(key); ok {
		t.Fatal("injected load error served a hit")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("load error must not quarantine the entry: %v", err)
	}
	if _, ok := c4.Get(key); ok {
		t.Fatal("injected load corruption served a hit")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupted load not quarantined: %v", err)
	}
	if got := chaos.Visits("cache.get"); got != 2 {
		t.Errorf("cache.get fired %d times, want 2", got)
	}
}

// TestCacheParentFixtureHits pins disk-layout compatibility: an entry
// spilled by the pre-store service.Cache (testdata/cache-v1, written
// before the result cache and the baseline store shared one
// implementation) must still hit under its recomputed Key and decode
// to the Result it was written from, and re-encoding that Result must
// reproduce the file byte for byte.
func TestCacheParentFixtureHits(t *testing.T) {
	cfg := sim.DefaultConfig(sim.PolicySTFM, 2)
	cfg.InstrTarget = 10_000
	cfg.Seed = 1
	key := Key(cfg, []string{"mcf", "libquantum"})
	want := &sim.Result{
		Policy: sim.PolicySTFM,
		Threads: []sim.ThreadResult{
			{Benchmark: "mcf", Instructions: 10_000, Cycles: 123_457, MemStallCycles: 98_765, IPC: 0.081, MCPI: 9.8765, DRAMReads: 1_234, DRAMWrites: 56, RowHitRate: 0.125, AvgReadLatency: 512.25, P95ReadLatency: 1024, P99ReadLatency: 2048},
			{Benchmark: "libquantum", Instructions: 10_000, Cycles: 45_678, MemStallCycles: 30_001, IPC: 0.21892, MCPI: 3.0001, DRAMReads: 987, DRAMWrites: 3, RowHitRate: 0.96875, AvgReadLatency: 300.5, P95ReadLatency: 512, P99ReadLatency: 1024, Truncated: true},
		},
		TotalCycles:          123_457,
		BusUtilization:       0.4375,
		STFMUnfairness:       1.0625,
		STFMFairnessFraction: 0.25,
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "cache-v1", key+".json"))
	if err != nil {
		t.Fatalf("no fixture under the recomputed key (key grammar changed?): %v", err)
	}
	dir := t.TempDir() // a failed load would quarantine the fixture
	if err := os.WriteFile(filepath.Join(dir, key+".json"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := openResultCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("parent-commit cache entry missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parent-commit entry decoded to\n%+v\nwant\n%+v", got, want)
	}
	enc, err := store.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, fixture) {
		t.Errorf("envelope encoding drifted from the parent's:\ngot  %s\nwant %s", enc, fixture)
	}
}
