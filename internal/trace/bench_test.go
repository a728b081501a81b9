package trace

import (
	"testing"

	"stfm/internal/dram"
)

// BenchmarkGeneratorNext times one synthetic access from the trace
// generator for a random-row benchmark (mcf) and a streaming one
// (libquantum), on the paper's single-channel geometry.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, name := range []string{"mcf", "libquantum"} {
		b.Run(name, func(b *testing.B) {
			prof, err := ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			g, err := NewGenerator(prof, dram.DefaultGeometry(1), 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next()
			}
		})
	}
}
