package cpu

import (
	"testing"

	"stfm/internal/dram"
	"stfm/internal/trace"
)

// BenchmarkCoreTick times one Core.Tick — commit, dependent-load issue,
// fetch, and the indexed load completions — for a core running mcf's
// endless access stream against a fixed 200-cycle memory port: the core
// model alone, with no controller or caches behind it.
func BenchmarkCoreTick(b *testing.B) {
	prof, err := trace.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := trace.NewGenerator(prof, dram.DefaultGeometry(1), 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	mem := &scriptMem{latency: 200, l2Miss: true}
	c := New(0, DefaultConfig(), mem, gen)
	now := int64(0)
	for ; now < 10_000; now++ { // warm the window and chain counters
		mem.tick(now)
		c.Tick(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem.tick(now)
		c.Tick(now)
		now++
	}
}
