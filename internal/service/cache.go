package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"stfm/internal/sim"
	"stfm/internal/store"
)

// Key derives the content address of one (Config, workload) job: the
// configuration's canonical fingerprint (sim.Config.Fingerprint, which
// covers every result-determining field including the trace Seed)
// combined with the ordered benchmark names. Trace generation is
// deterministic given (profile, geometry, core index, seed), so equal
// keys imply bit-identical runs — which is what makes serving a cached
// Result indistinguishable from re-running.
func Key(cfg sim.Config, workload []string) string {
	h := sha256.New()
	io.WriteString(h, cfg.Fingerprint())
	for _, name := range workload {
		fmt.Fprintf(h, "/%q", name)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// openResultCache opens the server's result cache — a store.Store of
// whole job Results keyed by Key, spilled to dir when set — with the
// chaos harness's cache.put/cache.get points wired into its spill and
// load paths.
func openResultCache(dir string, chaos *Chaos) (*store.Store, error) {
	c, err := store.Open(dir, nil)
	if err != nil {
		return nil, fmt.Errorf("service: cache dir: %w", err)
	}
	if chaos != nil {
		c.SetFaults(chaos.storeFaults())
	}
	return c, nil
}
