package des

import "testing"

// Kernel hot-path microbenchmarks that no perfbench probe times. Each
// isolates one closure-free path; the repo-root alloc gates pin the 0
// allocs/op claims. The process switch is timed by perfbench's
// des.process_switch row.

// benchChain is the carrier of the self-rescheduling closure-free chain:
// the (fn, arg) analogue of BenchmarkKernelScheduleTransient's closure.
type benchChain struct {
	k     *Kernel
	count int
	n     int
}

func benchChainFn(a any) {
	c := a.(*benchChain)
	c.count++
	if c.count < c.n {
		c.k.Post(c.k.Now().Add(1), benchChainFn, c)
	}
}

// BenchmarkKernelFire measures the closure-free schedule+fire round
// trip: one pooled event per op, carrying a package-level fn and a live
// carrier pointer — the form every converted hot path uses. 0 allocs/op.
func BenchmarkKernelFire(b *testing.B) {
	k := NewKernel(1)
	c := &benchChain{k: k, n: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	k.Post(0, benchChainFn, c)
	k.RunAll()
}
