package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"stfm/internal/sim"
	"stfm/internal/store"
)

// BaselineStore is the content-addressed store of alone-run baseline
// Results (the Talone denominators of Section 6.2): a store.Store
// opened by NewBaselineStore. Every slowdown computation in the
// experiment matrix needs the same few dozen alone runs, so the store
// deduplicates them in memory, across goroutines (per-key singleflight
// in Do), and — with a directory — across processes: stfm-experiments,
// stfm-sweep, stfm-bench and the stfm-server's -baseline-dir share one
// alone-run fleet.
type BaselineStore = store.Store

// BaselineStats are the store's cumulative counters.
type BaselineStats = store.Stats

// BaselineKey derives the content address of one alone-run baseline:
// the SHA-256 of the run configuration's canonical fingerprint
// (sim.Config.Fingerprint, covering every result-determining knob —
// protocol, timing, geometry, channels, budgets, seed) combined with
// the benchmark name. The key grammar is documented in DESIGN.md §18.
func BaselineKey(cfg sim.Config, benchmark string) string {
	h := sha256.New()
	io.WriteString(h, cfg.Fingerprint())
	fmt.Fprintf(h, "/alone/%q", benchmark)
	return hex.EncodeToString(h.Sum(nil))
}

// NewBaselineStore opens a baseline store on dir; dir == "" keeps it
// memory-only. Alone runs have exactly one thread, so a disk entry
// with any other shape is quarantined like a checksum failure and a
// damaged store can never skew a slowdown denominator.
func NewBaselineStore(dir string) (*BaselineStore, error) {
	return store.Open(dir, checkAlone)
}

// checkAlone is the baseline store's decode-time shape rule.
func checkAlone(res *sim.Result) error {
	if len(res.Threads) != 1 {
		return fmt.Errorf("%d threads, alone runs have exactly 1", len(res.Threads))
	}
	return nil
}
