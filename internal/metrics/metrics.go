// Package metrics provides the small statistics and table-rendering
// toolkit used by the experiment harness: streaming mean, min and max,
// and fixed-width text tables matching the paper's figures.
package metrics

import (
	"fmt"
	"strings"
)

// Stream accumulates a streaming mean, min and max without retaining
// samples. The zero value is an empty stream ready to use.
type Stream struct {
	n    int
	mean float64
	min  float64
	max  float64
}

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
	s.mean += (x - s.mean) / float64(s.n)
}

// N returns the sample count.
func (s *Stream) N() int { return s.n }

// Mean returns the sample mean (0 for empty streams).
func (s *Stream) Mean() float64 { return s.mean }

// Min returns the smallest sample.
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest sample.
func (s *Stream) Max() float64 { return s.max }

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
