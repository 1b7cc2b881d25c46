// Package metrics provides the small statistics and table-rendering
// toolkit used by the experiment harness: streaming moments, quantiles
// and fixed-width text tables matching the paper's figures.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Stream accumulates streaming statistics: moments via Welford's
// algorithm plus (optionally) a deterministic quantile Sketch. Memory
// is O(bins) regardless of how many samples are added — no sample is
// ever retained — which is what lets city-scale runs (millions of
// messages) keep bounded memory.
type Stream struct {
	n      int
	mean   float64
	m2     float64
	min    float64
	max    float64
	sketch *Sketch
}

// NewStream returns a stream with quantile support backed by a
// deterministic log-bucketed Sketch. Quantiles are bin-snapped (within
// one bin-width of the exact sorted quantile, ~3% relative); memory is
// O(bins), not O(samples).
func NewStream() *Stream { return &Stream{sketch: NewSketch()} }

// NewMomentsOnly returns a stream without quantile support (moments,
// min and max only; Quantile reports NaN).
func NewMomentsOnly() *Stream { return &Stream{} }

// Add records a sample. Negative zero is normalized to zero so that
// min/max render identically under any Add order.
func (s *Stream) Add(x float64) {
	if x == 0 {
		x = 0
	}
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	if s.sketch != nil {
		s.sketch.Add(x)
	}
}

// N returns the sample count.
func (s *Stream) N() int { return s.n }

// Mean returns the sample mean (0 for empty streams).
func (s *Stream) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance.
func (s *Stream) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Min returns the smallest sample.
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest sample.
func (s *Stream) Max() float64 { return s.max }

// Quantile returns the bin-snapped q-quantile (0 <= q <= 1) from the
// stream's Sketch: the midpoint of the sketch bin containing the
// requested order statistic, within one bin-width of the exact sorted
// quantile. q <= 0 and q >= 1 return the exact min and max. Streams
// built with NewMomentsOnly (and empty streams) report NaN.
func (s *Stream) Quantile(q float64) float64 {
	if s.sketch == nil || s.n == 0 {
		return math.NaN()
	}
	return s.sketch.Quantile(q)
}

// Sketch returns the stream's quantile sketch (nil for NewMomentsOnly
// streams), e.g. for merging partition-local streams into a global one.
func (s *Stream) Sketch() *Sketch { return s.sketch }

// Merge folds other into s. Moments are combined with the pairwise
// (Chan et al.) update; sketches merge bin-wise. Note the moment fold
// is associative only up to floating-point rounding — byte-stable
// aggregation across partitions must rely on the sketch (integer
// counts) and on min/max/n, which merge exactly.
func (s *Stream) Merge(other *Stream) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		s.min, s.max = other.min, other.max
	} else {
		if other.min < s.min {
			s.min = other.min
		}
		if other.max > s.max {
			s.max = other.max
		}
	}
	d := other.mean - s.mean
	tot := s.n + other.n
	s.m2 += other.m2 + d*d*float64(s.n)*float64(other.n)/float64(tot)
	s.mean += d * float64(other.n) / float64(tot)
	s.n = tot
	if s.sketch != nil && other.sketch != nil {
		s.sketch.Merge(other.sketch)
	}
}

// Table renders fixed-width text tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
