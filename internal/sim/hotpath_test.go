package sim

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"stfm/internal/telemetry"
	"stfm/internal/trace"
)

// TestRunLoopZeroAllocs pins the allocation-free simulation hot path
// (DESIGN.md §14): once warm, a burst of System.Tick calls allocates
// nothing — not the controller's requests (pooled), not the load
// completions (indexed tags, no closures), not the instruction window
// (a value ring), not the cache misses (slab MSHRs). Both engine
// shapes are covered: a deep-queue 16-core STFM miss stream, and a
// 4-core FR-FCFS system behind the L1/L2 hierarchy.
func TestRunLoopZeroAllocs(t *testing.T) {
	spec := trace.SPEC2006() // ordered by memory intensity
	withCaches := DefaultConfig(PolicyFRFCFS, 4)
	withCaches.UseCaches = true
	cases := []struct {
		name     string
		cfg      Config
		profiles []trace.Profile
	}{
		// The 8 most and 8 least intensive benchmarks.
		{"stfm-16c-direct", DefaultConfig(PolicySTFM, 16), append(append([]trace.Profile(nil), spec[:8]...), spec[len(spec)-8:]...)},
		{"frfcfs-4c-caches", withCaches, profilesByName(t, "astar", "omnetpp", "hmmer", "dealII")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSystem(tc.cfg, tc.profiles)
			if err != nil {
				t.Fatal(err)
			}
			// Warm-up: the request pool, chain counters and MSHR
			// waiter slices grow to their live-set sizes.
			for i := 0; i < 200_000; i++ {
				s.Tick()
			}
			served := s.Controller().ServicedReads()
			allocs := testing.AllocsPerRun(20, func() {
				for i := 0; i < 2_000; i++ {
					s.Tick()
				}
			})
			if allocs != 0 {
				t.Errorf("%.2f allocations per burst of 2000 ticks, want 0", allocs)
			}
			if s.Controller().ServicedReads() == served {
				t.Fatal("no DRAM reads completed during the measured bursts; the gate measured an idle system")
			}
		})
	}
}

// TestPoolConservationAcrossPolicies runs every scheduler with the
// self-checks on — including the request-pool identity (pooled equals
// queued plus in flight plus free, every free request zeroed) and the
// MSHR slab accounting — with the command tracer attached and the
// channel-parallel engine driving the controller, and requires each
// checked run to reproduce the plain run bit for bit.
func TestPoolConservationAcrossPolicies(t *testing.T) {
	for _, pol := range ExtendedPolicies() {
		for _, caches := range []bool{false, true} {
			pol, caches := pol, caches
			name := string(pol) + "/direct"
			if caches {
				name = string(pol) + "/caches"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig(pol, 4)
				cfg.Channels = 2
				cfg.InstrTarget = 15_000
				cfg.UseCaches = caches
				names := []string{"mcf", "libquantum", "omnetpp", "hmmer"}
				ref := runReference(t, cfg, names...)

				checked := cfg
				checked.CheckInvariants = true
				checked.WatchdogCycles = 2_000 // a self-check every 2000 cycles
				checked.Parallel = 2
				checked.Telemetry = telemetry.New(telemetry.Options{TraceCap: 1 << 12})
				got, err := RunContext(context.Background(), checked, profilesByName(t, names...))
				if err != nil {
					t.Fatal(err)
				}
				assertResultsEqual(t, "checked run", got, ref)
			})
		}
	}
}

// TestRestoreParentSnapshots is the checkpoint back-compat gate. The
// fixtures are mid-run snapshots written by the closure-based
// completion plumbing that predates indexed completions — one in
// miss-stream mode (STFM, in-flight reads paired to window entries by
// issue order) and one in cache mode (FR-FCFS, MSHRs with merged
// waiters and pending hit completions; its first profile is libquantum
// narrowed to two rows of one bank, so loads merge into in-flight
// misses). The wire format did not change, so each must restore under
// the current code and finish with the Result of an uninterrupted run
// of its own Config and profiles, both carried in the snapshot.
func TestRestoreParentSnapshots(t *testing.T) {
	for _, name := range []string{"ckpt_direct.bin.gz", "ckpt_cache.bin.gz"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			data := readGzip(t, filepath.Join("testdata", name))
			p, err := decodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			if p.Config.UseCaches {
				merged, completions := 0, 0
				for _, h := range p.Hierarchies {
					completions += len(h.Completions)
					for _, m := range h.Outstanding {
						if len(m.WaiterTags) >= 2 {
							merged++
						}
					}
				}
				if merged == 0 || completions == 0 {
					t.Fatalf("fixture has %d merged MSHRs and %d pending completions; it must exercise both", merged, completions)
				}
			} else if len(p.Controller.Requests) == 0 {
				t.Fatal("fixture has no live DRAM requests to re-pair")
			}
			ref, err := Run(p.Config, p.Profiles)
			if err != nil {
				t.Fatal(err)
			}
			got := resumeFrom(t, data, nil)
			assertResultsEqual(t, "resumed parent snapshot", got, ref)
		})
	}
}

func readGzip(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, zr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
