package reactor

import (
	"fmt"
	"testing"

	"repro/internal/logical"
)

// BenchmarkWorkerScaling is the E7 ablation: the reactor scheduler's
// in-level parallelism. The logical trace is identical for every worker
// count (asserted in the reactor tests); here we measure throughput of a
// wide fan-out program under real parallel execution.
func BenchmarkWorkerScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			env := NewEnvironment(Options{Fast: true, Workers: workers})
			src := env.NewReactor("src")
			out := NewOutputPort[int](src, "out")
			timer := NewTimer(src, "t", 0, logical.Microsecond)
			n := 0
			limit := b.N
			src.AddReaction("emit").Triggers(timer).Effects(out).Do(func(c *Ctx) {
				n++
				if n > limit {
					c.RequestStop()
					return
				}
				out.Set(c, n)
			})
			// 16 parallel workers each doing real computation.
			sink := make([]int, 16)
			for w := 0; w < 16; w++ {
				w := w
				r := env.NewReactor(fmt.Sprintf("w-%d", w))
				in := NewInputPort[int](r, "in")
				Connect(out, in)
				r.AddReaction("work").Triggers(in).Do(func(c *Ctx) {
					v, _ := in.Get(c)
					acc := v
					// Enough per-reaction computation (~30µs) for in-level
					// parallelism to outweigh goroutine hand-off costs.
					for i := 0; i < 60000; i++ {
						acc = acc*1103515245 + 12345
					}
					sink[w] = acc
				})
			}
			b.ResetTimer()
			if err := env.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
