package sim

import (
	"context"
	"testing"

	"stfm/internal/workloads"
)

// TestWorkCounters pins the engine's machine-independent work counts
// (System.Counters, DESIGN.md §10) on reduced-budget versions of the
// two perfbench simulation configs: the 16-core STFM miss-stream mix
// (deep queues, arbitration-bound) and the 4-core FR-FCFS mix behind
// the caches (shallow queues, the event engine skips many cycles).
//
// Three kinds of assertion:
//   - the conservation law: every cycle of a run from cycle 0 is
//     either stepped or skipped, so Steps + CyclesSkipped equals
//     Result.TotalCycles (and the cycle a CheckpointAt warm-up stops
//     at), a dense run skips nothing, and a restored System starts
//     from zero;
//   - FR-FCFS and STFM are OrderingPolicies, so a full bank scan runs
//     exactly on a winner-memo miss;
//   - upper bounds on the work counts. A change that does more work
//     fails here on any machine; a change that does less lowers the
//     bound to the new count in the same change, so the bounds only
//     move down.
func TestWorkCounters(t *testing.T) {
	type bounds struct {
		steps, coreTicks, edges, scans, winnerMisses int64
	}
	stfm16 := DefaultConfig(PolicySTFM, 16)
	stfm16.InstrTarget = 10_000
	stfm16.MinMisses = 150
	stfm16.Seed = 1
	caches4 := DefaultConfig(PolicyFRFCFS, 4)
	caches4.InstrTarget = 60_000
	caches4.MinMisses = 150
	caches4.UseCaches = true
	caches4.Seed = 1
	cases := []struct {
		name string
		cfg  Config
		mix  workloads.Mix
		max  bounds
	}{
		{"stfm-16c", stfm16, workloads.SixteenCoreMixes()[1], bounds{
			steps: 615_061, coreTicks: 3_514_025, edges: 61_532, scans: 110_601, winnerMisses: 110_601,
		}},
		{"caches-4c", caches4, workloads.SampleFourCore()[8], bounds{
			steps: 228_301, coreTicks: 288_869, edges: 25_114, scans: 14_105, winnerMisses: 14_105,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(dense bool) (Counters, *Result) {
				cfg := tc.cfg
				cfg.DenseTick = dense
				s, err := NewSystem(cfg, tc.mix.Profiles)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				return s.Counters(), res
			}
			c, res := run(false)
			t.Logf("event: %d cycles, %+v", res.TotalCycles, c)
			if c.Steps+c.CyclesSkipped != res.TotalCycles {
				t.Errorf("event: steps %d + skipped %d != %d total cycles", c.Steps, c.CyclesSkipped, res.TotalCycles)
			}
			if c.ArbitrationScans != c.WinnerMemoMisses {
				t.Errorf("%d arbitration scans, %d winner-memo misses: an OrderingPolicy scans exactly on a miss",
					c.ArbitrationScans, c.WinnerMemoMisses)
			}
			dc, dres := run(true)
			if dc.CyclesSkipped != 0 || dc.Jumps != 0 || dc.Steps != dres.TotalCycles {
				t.Errorf("dense: %d steps, %d jumps, %d skipped for %d total cycles; want one step per cycle",
					dc.Steps, dc.Jumps, dc.CyclesSkipped, dres.TotalCycles)
			}
			warm, err := NewSystem(tc.cfg, tc.mix.Profiles)
			if err != nil {
				t.Fatal(err)
			}
			data, err := warm.CheckpointAt(context.Background(), 20_000)
			if err != nil {
				t.Fatal(err)
			}
			if wc := warm.Counters(); wc.Steps+wc.CyclesSkipped != warm.Now() {
				t.Errorf("CheckpointAt: steps %d + skipped %d != cycle %d", wc.Steps, wc.CyclesSkipped, warm.Now())
			}
			restored, err := Restore(data, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rc := restored.Counters(); rc != (Counters{}) {
				t.Errorf("restored System starts with counters %+v, want zero", rc)
			}
			for _, b := range []struct {
				name     string
				got, max int64
			}{
				{"Steps", c.Steps, tc.max.steps},
				{"CoreTicks", c.CoreTicks, tc.max.coreTicks},
				{"ControllerEdges", c.ControllerEdges, tc.max.edges},
				{"ArbitrationScans", c.ArbitrationScans, tc.max.scans},
				{"WinnerMemoMisses", c.WinnerMemoMisses, tc.max.winnerMisses},
			} {
				if b.got > b.max {
					t.Errorf("%s = %d, above its bound %d: the engine does more work than before", b.name, b.got, b.max)
				}
			}
		})
	}
}
