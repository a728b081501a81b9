package dram

import "testing"

// BenchmarkCommandReadyAt times the timing-constraint query the
// controller's scheduling memo falls back to whenever a bank's state
// epoch moves: the earliest cycle each of a mix of commands (activate,
// read, write, precharge across eight banks, some rows open) satisfies
// every bank, rank and bus constraint. The DDR4 variant adds bank-group
// tCCD_L/tCCD_S spacing.
func BenchmarkCommandReadyAt(b *testing.B) {
	for _, p := range []Protocol{DDR2, DDR4} {
		b.Run(string(p), func(b *testing.B) {
			tm, err := PresetTiming(p)
			if err != nil {
				b.Fatal(err)
			}
			ch := NewChannel(8, tm)
			now := int64(0)
			for bank := 0; bank < 8; bank += 2 {
				cmd := ch.NextCommand(bank, bank+1, false)
				now = max(now, ch.CommandReadyAt(cmd))
				ch.Issue(cmd, now)
			}
			var cmds []Command
			for bank := 0; bank < 8; bank++ {
				cmds = append(cmds,
					ch.NextCommand(bank, bank+1, false),
					ch.NextCommand(bank, bank+1, true),
					ch.NextCommand(bank, bank+2, false))
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += ch.CommandReadyAt(cmds[i%len(cmds)])
			}
			_ = sink
		})
	}
}
