package des

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(123), NewRand(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRandSeedSensitivity(t *testing.T) {
	a, b := NewRand(123), NewRand(124)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d/100 collisions between different seeds", same)
	}
}

func TestRandStreamIndependence(t *testing.T) {
	r := NewRand(7)
	s1 := r.Stream("alpha")
	s2 := r.Stream("beta")
	s1b := NewRand(7).Stream("alpha")
	for i := 0; i < 50; i++ {
		if s1.Uint64() != s1b.Uint64() {
			t.Fatal("same-label streams differ")
		}
	}
	same := 0
	s1 = NewRand(7).Stream("alpha")
	for i := 0; i < 100; i++ {
		if s1.Uint64() == s2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams alpha/beta collide %d/100", same)
	}
}

func TestRandZeroSeedWorks(t *testing.T) {
	r := NewRand(0)
	seen := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 19 {
		t.Error("zero seed produces degenerate stream")
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int63n(0) should panic")
		}
	}()
	NewRand(1).Int63n(0)
}

func TestRangeInclusive(t *testing.T) {
	r := NewRand(6)
	sawLo, sawHi := false, false
	for i := 0; i < 20000; i++ {
		v := r.Range(-3, 3)
		if v < -3 || v > 3 {
			t.Fatalf("Range = %d", v)
		}
		if v == -3 {
			sawLo = true
		}
		if v == 3 {
			sawHi = true
		}
	}
	if !sawLo || !sawHi {
		t.Error("Range endpoints never sampled")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(8)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRand(9)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRand(10)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		v := r.Exp(3.0)
		if v < 0 {
			t.Fatalf("Exp < 0: %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-3.0) > 0.1 {
		t.Errorf("Exp mean = %v, want ~3", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRand(11)
	n := 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Norm mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("Norm sigma = %v, want ~2", math.Sqrt(variance))
	}
}

// Property: Int63n within bounds.
func TestInt63nBoundsProperty(t *testing.T) {
	r := NewRand(15)
	f := func(n uint32) bool {
		m := int64(n%1_000_000) + 1
		v := r.Int63n(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewRand(16)
	const buckets = 10
	counts := make([]int, buckets)
	n := 100000
	for i := 0; i < n; i++ {
		counts[r.Int63n(buckets)]++
	}
	expect := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expect) > 0.05*expect {
			t.Errorf("bucket %d count %d deviates from %v", b, c, expect)
		}
	}
}

// Mix3 is the counter-based randomness primitive: a pure function of its
// arguments, sensitive to every argument, with roughly uniform output.
func TestMix3CounterHash(t *testing.T) {
	if Mix3(1, 2, 3) != Mix3(1, 2, 3) {
		t.Fatal("Mix3 must be a pure function")
	}
	seen := map[uint64]bool{Mix3(1, 2, 3): true}
	for _, v := range []uint64{Mix3(2, 2, 3), Mix3(1, 3, 3), Mix3(1, 2, 4), Mix3(0, 0, 0)} {
		if seen[v] {
			t.Fatalf("collision on trivially distinct inputs: %#x", v)
		}
		seen[v] = true
	}
	// Uniformity of UnitFloat64 over a counter sweep: mean of 100k draws
	// from one (seed, stream) pair should sit near 0.5.
	sum := 0.0
	const n = 100000
	for i := uint64(0); i < n; i++ {
		f := UnitFloat64(Mix3(42, 7, i))
		if f < 0 || f >= 1 {
			t.Fatalf("UnitFloat64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("counter-stream mean %v, want ~0.5", mean)
	}
}
