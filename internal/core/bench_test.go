package core

import (
	"testing"

	"stfm/internal/dram"
	"stfm/internal/memctrl"
)

// BenchmarkSTFMHooks times STFM's two per-edge hooks on a 16-thread
// controller view with every thread queued: BeginCycle (the slowdown
// and unfairness recomputation run on every DRAM edge) and OnSchedule
// (the interference accounting run on every issued command, here over
// a 16-candidate waiting set spread across the channel's banks).
func BenchmarkSTFMHooks(b *testing.B) {
	const threads = 16
	f := newFixture(b, threads, DefaultConfig())
	for t := 0; t < threads; t++ {
		f.view.queued[t] = true
		f.view.banks[t] = 1 + t%4
		f.view.requests[t] = 2 + t%3
		f.view.inService[t] = t % 2
		f.tshared[t] = int64(1000 * (t + 1))
	}
	kinds := []dram.CommandKind{dram.CmdRead, dram.CmdActivate, dram.CmdPrecharge, dram.CmdRead}
	cands := make([]memctrl.Candidate, threads)
	for t := range cands {
		cands[t] = candAt(t, kinds[t%len(kinds)], t%8, int64(t))
	}
	b.Run("BeginCycle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.stfm.BeginCycle(int64(i))
		}
	})
	b.Run("OnSchedule", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.stfm.OnSchedule(int64(i), &cands[i%threads], cands)
		}
	})
}
