package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestStreamMoments(t *testing.T) {
	var s Stream
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("n = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestEmptyStream(t *testing.T) {
	var s Stream
	if s.Mean() != 0 || s.N() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty stream should be all zero")
	}
}

// Property: mean stays within [min, max] and matches direct computation.
func TestStreamMeanProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var s Stream
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

// BenchmarkStreamAdd measures the streaming-ingest hot path (the
// running mean, min and max update).
func BenchmarkStreamAdd(b *testing.B) {
	var s Stream
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(float64(i % 997))
	}
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
