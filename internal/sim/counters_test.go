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
//   - the conservation laws: every cycle of a run from cycle 0 is
//     either stepped or skipped, so Steps + CyclesSkipped equals
//     Result.TotalCycles (and the cycle a CheckpointAt warm-up stops
//     at); every core cycle is either ticked, idle or fast-forwarded,
//     so CoreTicks + CoreCyclesIdle + CoreCyclesFastForwarded equals
//     cores × TotalCycles; a dense run skips nothing and ticks every
//     core cycle, and a restored System starts from zero;
//   - FR-FCFS and STFM are OrderingPolicies, so a full bank scan runs
//     exactly on a winner-memo miss;
//   - upper bounds on the work counts. A change that does more work
//     fails here on any machine; a change that does less lowers the
//     bound to the new count in the same change, so the bounds only
//     move down.
func TestWorkCounters(t *testing.T) {
	type bounds struct {
		steps, coreTicks, edges, channelScans, scans, winnerMisses, delayed int64
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
			steps: 126_866, coreTicks: 106_065, edges: 61_532, channelScans: 139_369,
			scans: 110_162, winnerMisses: 110_162, delayed: 254_131,
		}},
		{"caches-4c", caches4, workloads.SampleFourCore()[8], bounds{
			steps: 34_562, coreTicks: 14_062, edges: 25_114, channelScans: 23_170,
			scans: 14_105, winnerMisses: 14_105, delayed: 21_547,
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
			coreCycles := func(mode string, c Counters, res *Result) {
				if got, want := c.CoreTicks+c.CoreCyclesIdle+c.CoreCyclesFastForwarded, int64(len(res.Threads))*res.TotalCycles; got != want {
					t.Errorf("%s: core ticks %d + idle %d + fast-forwarded %d = %d, want cores × cycles = %d",
						mode, c.CoreTicks, c.CoreCyclesIdle, c.CoreCyclesFastForwarded, got, want)
				}
			}
			c, res := run(false)
			t.Logf("event: %d cycles, %+v", res.TotalCycles, c)
			if c.Steps+c.CyclesSkipped != res.TotalCycles {
				t.Errorf("event: steps %d + skipped %d != %d total cycles", c.Steps, c.CyclesSkipped, res.TotalCycles)
			}
			coreCycles("event", c, res)
			if c.ArbitrationScans != c.WinnerMemoMisses {
				t.Errorf("%d arbitration scans, %d winner-memo misses: an OrderingPolicy scans exactly on a miss",
					c.ArbitrationScans, c.WinnerMemoMisses)
			}
			dc, dres := run(true)
			if dc.CyclesSkipped != 0 || dc.Jumps != 0 || dc.Steps != dres.TotalCycles {
				t.Errorf("dense: %d steps, %d jumps, %d skipped for %d total cycles; want one step per cycle",
					dc.Steps, dc.Jumps, dc.CyclesSkipped, dres.TotalCycles)
			}
			if dc.CoreCyclesIdle != 0 || dc.CoreCyclesFastForwarded != 0 {
				t.Errorf("dense: %d idle and %d fast-forwarded core cycles; want every core cycle ticked",
					dc.CoreCyclesIdle, dc.CoreCyclesFastForwarded)
			}
			coreCycles("dense", dc, dres)
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
				{"ChannelScans", c.ChannelScans, tc.max.channelScans},
				{"ArbitrationScans", c.ArbitrationScans, tc.max.scans},
				{"WinnerMemoMisses", c.WinnerMemoMisses, tc.max.winnerMisses},
				{"DelayedCandidates", c.DelayedCandidates, tc.max.delayed},
			} {
				if b.got > b.max {
					t.Errorf("%s = %d, above its bound %d: the engine does more work than before", b.name, b.got, b.max)
				}
			}
		})
	}
}
