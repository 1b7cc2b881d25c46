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

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for i := 0; i < 10; i++ {
		h.Add(float64(i))
	}
	h.Add(-1)
	h.Add(10)
	h.Add(99)
	for i, want := range []int{2, 2, 2, 2, 2} {
		if h.Buckets[i] != want {
			t.Errorf("bucket %d = %d", i, h.Buckets[i])
		}
	}
	under, over := h.OutOfRange()
	if under != 1 || over != 2 {
		t.Errorf("under/over = %d/%d", under, over)
	}
	if h.N() != 13 {
		t.Errorf("n = %d", h.N())
	}
	if f := h.Fraction(0); math.Abs(f-2.0/13) > 1e-12 {
		t.Errorf("fraction = %v", f)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 4, 4)
	h.Add(0)
	h.Add(1)
	h.Add(1)
	out := h.Render(20, func(i int) string { return string(rune('a' + i)) })
	if !strings.Contains(out, "a") || !strings.Contains(out, "#") {
		t.Errorf("render output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("lines = %d", len(lines))
	}
}

// Boundary samples must land in the bucket whose half-open range starts
// at the edge. The old float-multiply index ((x-Lo)/(Hi-Lo)*n) rounds:
// e.g. with [0,3) and 3 buckets, x=1.0 gave 1/3*3 = 0.999... → bucket 0.
// The edge-comparison index must place every exact edge value correctly.
func TestHistogramBoundaryBuckets(t *testing.T) {
	cases := []struct {
		lo, hi  float64
		buckets int
		x       float64
		want    int // bucket index; -1 under, -2 over
	}{
		{0, 3, 3, 0, 0},
		{0, 3, 3, 1, 1}, // the float-multiply mis-bucket case
		{0, 3, 3, 2, 2},
		{0, 3, 3, 2.999, 2},
		{0, 3, 3, 3, -2},
		{0, 3, 3, -0.001, -1},
		{0, 7, 7, 5, 5},
		{0, 7, 7, 6, 6},
		{0.5, 2, 3, 1.0, 1},
		{0.5, 2, 3, 1.5, 2},
		{-3, 3, 6, -1, 2},
		{-3, 3, 6, 0, 3},
		{-3, 3, 6, 1, 4},
		{1e9, 4e9, 3, 2e9, 1},
		{1e9, 4e9, 3, 3e9, 2},
	}
	for _, c := range cases {
		h := NewHistogram(c.lo, c.hi, c.buckets)
		h.Add(c.x)
		under, over := h.OutOfRange()
		switch c.want {
		case -1:
			if under != 1 {
				t.Errorf("[%v,%v)/%d Add(%v): want under", c.lo, c.hi, c.buckets, c.x)
			}
		case -2:
			if over != 1 {
				t.Errorf("[%v,%v)/%d Add(%v): want over", c.lo, c.hi, c.buckets, c.x)
			}
		default:
			if h.Buckets[c.want] != 1 {
				got := -1
				for i, n := range h.Buckets {
					if n == 1 {
						got = i
					}
				}
				t.Errorf("[%v,%v)/%d Add(%v): bucket %d, want %d", c.lo, c.hi, c.buckets, c.x, got, c.want)
			}
		}
	}
}

// Every sample inside [Lo, Hi) must land in exactly one bucket whose
// edge range contains it, for arbitrary bounds.
func TestHistogramBucketContainsProperty(t *testing.T) {
	f := func(rawLo, span float64, nb uint8, raw []float64) bool {
		if math.IsNaN(rawLo) || math.IsInf(rawLo, 0) || math.Abs(rawLo) > 1e12 {
			return true
		}
		if math.IsNaN(span) || math.IsInf(span, 0) {
			return true
		}
		span = math.Abs(span)
		if span < 1e-9 || span > 1e12 {
			return true
		}
		n := int(nb%32) + 1
		h := NewHistogram(rawLo, rawLo+span, n)
		for _, f := range raw {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
			// Fold the sample into [Lo, Hi).
			x := rawLo + math.Mod(math.Abs(f), span)
			if x < rawLo || x >= rawLo+span {
				continue
			}
			before := append([]int(nil), h.Buckets...)
			h.Add(x)
			hit := -1
			for i := range h.Buckets {
				if h.Buckets[i] != before[i] {
					if hit != -1 {
						return false // two buckets changed
					}
					hit = i
				}
			}
			if hit == -1 {
				return false // fell out of range despite x in [Lo,Hi)
			}
			lo := h.edges[hit]
			hi := h.edges[hit+1]
			if x < lo || x >= hi {
				return false // landed in a bucket not containing it
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewHistogram(5, 5, 3)
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

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.Row("x,y", `q"u`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"q""u"`) {
		t.Errorf("csv = %q", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("csv header = %q", csv)
	}
}
