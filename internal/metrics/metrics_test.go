package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestStreamMoments(t *testing.T) {
	s := NewStream()
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("n = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %v", s.Mean())
	}
	// Known dataset: population stddev 2, sample variance 32/7.
	if math.Abs(s.Var()-32.0/7.0) > 1e-12 {
		t.Errorf("var = %v", s.Var())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestStreamQuantiles(t *testing.T) {
	s := NewStream()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	// Extremes are exact; interior quantiles are bin-snapped to within
	// one bin-width of the order statistic.
	if q := s.Quantile(0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Errorf("q1 = %v", q)
	}
	if q := s.Quantile(0.5); math.Abs(q-50) > s.Sketch().BinWidth(50) {
		t.Errorf("median = %v", q)
	}
	if q := s.Quantile(0.99); math.Abs(q-99) > s.Sketch().BinWidth(99) {
		t.Errorf("p99 = %v", q)
	}
}

func TestMomentsOnlyQuantileNaN(t *testing.T) {
	s := NewMomentsOnly()
	s.Add(1)
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("quantile without retention should be NaN")
	}
}

func TestEmptyStream(t *testing.T) {
	s := NewStream()
	if s.Mean() != 0 || s.Var() != 0 || s.N() != 0 {
		t.Error("empty stream should be all zero")
	}
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

// Property: mean stays within [min, max] and matches direct computation.
func TestStreamMeanProperty(t *testing.T) {
	f := func(xs []float64) bool {
		s := NewStream()
		var sum float64
		var clean []float64
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			clean = append(clean, x)
			s.Add(x)
			sum += x
		}
		if len(clean) == 0 {
			return true
		}
		want := sum / float64(len(clean))
		if math.Abs(s.Mean()-want) > 1e-6*(1+math.Abs(want)) {
			return false
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: quantile is monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b uint8) bool {
		s := NewStream()
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		qa := float64(a%101) / 100
		qb := float64(b%101) / 100
		if qa > qb {
			qa, qb = qb, qa
		}
		return s.Quantile(qa) <= s.Quantile(qb)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Regression inputs the monotone property once found: a bin midpoint
// outside [min, max], both for a magnitude in the clamped edge bin and
// for an in-range value sitting above its bin's midpoint.
func TestQuantileMonotoneRegressions(t *testing.T) {
	for _, xs := range [][]float64{{7.98e307}, {5.1}, {-5.1}, {-7.98e307, 5.1}} {
		s := NewStream()
		for _, x := range xs {
			s.Add(x)
		}
		prev := s.Quantile(0)
		for i := 1; i <= 100; i++ {
			q := s.Quantile(float64(i) / 100)
			if q < prev {
				t.Fatalf("%v: Quantile(%.2f) = %v < Quantile(%.2f) = %v",
					xs, float64(i)/100, q, float64(i-1)/100, prev)
			}
			prev = q
		}
	}
}

func TestQuantileMatchesSorted(t *testing.T) {
	s := NewStream()
	data := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	for _, x := range data {
		s.Add(x)
	}
	sort.Float64s(data)
	want := data[len(data)/2]
	if got := s.Quantile(0.5); math.Abs(got-want) > s.Sketch().BinWidth(want) {
		t.Errorf("median = %v, exact = %v", got, want)
	}
}

// renderStats renders the permutation-invariant statistics of a stream
// exactly as a canonical report would: integer count, exact min/max, and
// bin-snapped quantiles. Mean/Var are deliberately excluded — Welford
// moments are order-sensitive in their last bits.
func renderStats(s *Stream) string {
	return fmt.Sprintf("n=%d min=%v max=%v q25=%v q50=%v q90=%v q99=%v",
		s.N(), s.Min(), s.Max(),
		s.Quantile(0.25), s.Quantile(0.5), s.Quantile(0.9), s.Quantile(0.99))
}

// Property (the one the city-scale gate relies on): any permutation of
// Adds yields byte-identical rendered stats, because the sketch state is
// integer bin counts and min/max are exact folds.
func TestSketchPermutationInvariance(t *testing.T) {
	f := func(xs []float64, seed uint16) bool {
		var clean []float64
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			clean = append(clean, x)
		}
		if len(clean) == 0 {
			return true
		}
		fwd := NewStream()
		for _, x := range clean {
			fwd.Add(x)
		}
		// A deterministic permutation derived from seed, plus reversal.
		perm := append([]float64(nil), clean...)
		r := uint64(seed) + 1
		for i := len(perm) - 1; i > 0; i-- {
			r = r*6364136223846793005 + 1442695040888963407
			j := int(r % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		shuf := NewStream()
		for _, x := range perm {
			shuf.Add(x)
		}
		rev := NewStream()
		for i := len(clean) - 1; i >= 0; i-- {
			rev.Add(clean[i])
		}
		a, b, c := renderStats(fwd), renderStats(shuf), renderStats(rev)
		return a == b && a == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every sketch quantile is within one bin-width of the exact
// sorted quantile (the order statistic of rank ⌊q·(n−1)⌋), for values
// inside the sketch's representable magnitude range.
func TestSketchQuantileAccuracy(t *testing.T) {
	f := func(raw []uint32, qi uint8) bool {
		if len(raw) == 0 {
			return true
		}
		// Map to a latency-like positive range spanning several octaves.
		var xs []float64
		s := NewStream()
		for _, u := range raw {
			x := float64(u)/16 + 0.25
			xs = append(xs, x)
			s.Add(x)
		}
		sort.Float64s(xs)
		q := float64(qi%101) / 100
		exact := xs[int(q*float64(len(xs)-1))]
		got := s.Quantile(q)
		return math.Abs(got-exact) <= s.Sketch().BinWidth(exact)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Incremental consistency: a stream built by interleaved Adds must agree
// exactly with a fresh stream over the same samples at every step (the
// sketch has no caches to invalidate — state is purely the counts).
func TestSketchIncrementalConsistency(t *testing.T) {
	s := NewStream()
	var data []float64
	for i := 0; i < 200; i++ {
		x := float64((i*7919)%457) - 100
		s.Add(x)
		data = append(data, x)
		if i%13 != 0 {
			continue
		}
		fresh := NewStream()
		for _, v := range data {
			fresh.Add(v)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if got, want := s.Quantile(q), fresh.Quantile(q); got != want {
				t.Fatalf("after %d adds: Quantile(%v) = %v, fresh = %v", i+1, q, got, want)
			}
		}
	}
}

// Merging partition-local streams must agree exactly with a single
// global stream over the concatenated samples (integer-count fold).
func TestStreamMergeMatchesGlobal(t *testing.T) {
	global := NewStream()
	var parts []*Stream
	for p := 0; p < 4; p++ {
		parts = append(parts, NewStream())
	}
	for i := 0; i < 1000; i++ {
		x := float64((i*2654435761)%100003) / 7
		global.Add(x)
		parts[i%4].Add(x)
	}
	merged := NewStream()
	for _, p := range parts {
		merged.Merge(p)
	}
	if renderStats(merged) != renderStats(global) {
		t.Errorf("merged:\n%s\nglobal:\n%s", renderStats(merged), renderStats(global))
	}
	if merged.N() != global.N() {
		t.Errorf("n = %d, want %d", merged.N(), global.N())
	}
	if math.Abs(merged.Mean()-global.Mean()) > 1e-9*(1+math.Abs(global.Mean())) {
		t.Errorf("mean = %v, want %v", merged.Mean(), global.Mean())
	}
	if math.Abs(merged.Var()-global.Var()) > 1e-6*(1+global.Var()) {
		t.Errorf("var = %v, want %v", merged.Var(), global.Var())
	}
}

// BenchmarkStreamQuantile measures the per-quantile cost on a sketch-
// backed stream — the report-generation pattern (E8/E10 query several
// quantiles per stream, per report). The sketch walk is O(bins), with
// zero allocation and no dependence on the sample count.
func BenchmarkStreamQuantile(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(benchSize(n), func(b *testing.B) {
			s := NewStream()
			for i := 0; i < n; i++ {
				s.Add(float64((i * 2654435761) % 1000003))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Quantile(float64(i%100) / 100)
			}
		})
	}
}

// BenchmarkStreamAdd measures the streaming-ingest hot path (Welford
// update + sketch bin increment); city-scale runs push millions of
// samples through it.
func BenchmarkStreamAdd(b *testing.B) {
	s := NewStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(float64(i % 997))
	}
}

func benchSize(n int) string {
	if n >= 1000 {
		return fmt.Sprintf("n%dk", n/1000)
	}
	return fmt.Sprintf("n%d", n)
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Row("alpha", 1.5)
	tb.Row("b", 22)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.500") || !strings.Contains(out, "22") {
		t.Errorf("table:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Errorf("lines = %d", len(lines))
	}
	// Columns aligned: header and rows share prefix width.
	if len(lines[0]) == 0 || lines[1][0] != '-' {
		t.Errorf("separator missing:\n%s", out)
	}
}
