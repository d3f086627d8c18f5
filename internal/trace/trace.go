// Package trace renders the evaluation's output (§5): unit formatters
// and the fixed-width table and figure-series renderers cmd/sdbench uses
// to print paper-style results. Latency distributions live in
// internal/telemetry.
package trace

import (
	"fmt"
	"math"
	"strings"
)

// Nanos renders a nanosecond quantity with an adaptive unit.
func Nanos(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// Rate renders an operations-per-second quantity the way the paper does
// (M op/s, K op/s).
func Rate(opsPerSec float64) string {
	switch {
	case opsPerSec >= 1e6:
		return fmt.Sprintf("%.1f M op/s", opsPerSec/1e6)
	case opsPerSec >= 1e3:
		return fmt.Sprintf("%.1f K op/s", opsPerSec/1e3)
	default:
		return fmt.Sprintf("%.1f op/s", opsPerSec)
	}
}

// Gbps renders a throughput in gigabits per second.
func Gbps(bytesPerSec float64) string {
	return fmt.Sprintf("%.2f Gbps", bytesPerSec*8/1e9)
}

// Table is a fixed-width text table builder.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Header)
	width := make([]int, cols)
	for i, hc := range t.Header {
		width[i] = len(hc)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < cols && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", width[i]+2, c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Series is a labelled (x, y) sequence for figure-style output.
type Series struct {
	Name   string
	X      []float64
	Y      []float64
	XLabel string
	YLabel string
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// RenderFigure prints multiple series as an aligned data block (one row
// per x value, one column per series), easy to eyeball and to plot.
func RenderFigure(title, xLabel string, xs []float64, series []*Series, yFmt func(float64) string) string {
	t := &Table{Title: title, Header: append([]string{xLabel}, names(series)...)}
	for i, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range series {
			if i < len(s.Y) {
				row = append(row, yFmt(s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		t.Add(row...)
	}
	return t.String()
}

func names(series []*Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Name
	}
	return out
}

func trimFloat(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}

// SizeLabel renders a byte count like the paper's x axes (8B, 64B, 4K, 1M).
func SizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
