// Package metrics provides the statistics and result-shaping utilities the
// experiment harness reports with: latency summaries, saturation
// detection, and the Series/Table structures that render the paper's
// figures as aligned text or CSV.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Summary describes a latency sample set (cycles).
type Summary struct {
	Count  int
	Mean   float64
	Median float64
	P95    float64
	Min    float64
	Max    float64
	StdDev float64
}

// Summarize computes a Summary; an empty input yields a zero Summary.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var sum, sq float64
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(len(s))
	for _, v := range s {
		sq += (v - mean) * (v - mean)
	}
	return Summary{
		Count:  len(s),
		Mean:   mean,
		Median: quantile(s, 0.5),
		P95:    quantile(s, 0.95),
		Min:    s[0],
		Max:    s[len(s)-1],
		StdDev: math.Sqrt(sq / float64(len(s))),
	}
}

// quantile interpolates the q-quantile of sorted data.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean is a convenience over Summarize for the common case.
func Mean(samples []float64) float64 { return Summarize(samples).Mean }

// Series is one labeled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
	// Note holds per-point annotations (e.g. "SAT" past saturation);
	// empty or shorter than X is fine.
	Note []string
}

// Table is a renderable experiment result: one figure (or panel of one).
type Table struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Render writes the table in aligned text, x values as rows and one column
// per series — the layout EXPERIMENTS.md embeds.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	// Collect the union of x values in order.
	xs := unionX(t.Series)
	cols := make([]string, 0, len(t.Series)+1)
	cols = append(cols, t.XLabel)
	for _, s := range t.Series {
		cols = append(cols, s.Label)
	}
	rows := [][]string{cols}
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range t.Series {
			row = append(row, lookup(s, x))
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(cols))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(cell, widths[i]))
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " ")); err != nil {
			return err
		}
		if ri == 0 {
			if _, err := fmt.Fprintln(w, strings.Repeat("-", sumWidths(widths))); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "(y: %s)\n", t.YLabel)
	return err
}

// WriteCSV emits the table with one row per (series, x, y) triple.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "title,series,%s,%s,note\n", csvEscape(t.XLabel), csvEscape(t.YLabel)); err != nil {
		return err
	}
	for _, s := range t.Series {
		for i := range s.X {
			note := ""
			if i < len(s.Note) {
				note = s.Note[i]
			}
			y := fmt.Sprintf("%v", s.Y[i])
			if math.IsNaN(s.Y[i]) {
				y = "" // no measurable value at this point
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%v,%s,%s\n",
				csvEscape(t.Title), csvEscape(s.Label), s.X[i], y, csvEscape(note)); err != nil {
				return err
			}
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func unionX(series []Series) []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

func lookup(s Series, x float64) string {
	for i, sx := range s.X {
		if sx == x {
			// NaN marks a point with no measurable Y (e.g. a saturated load
			// point where nothing completed); render the annotation alone.
			cell := "-"
			if !math.IsNaN(s.Y[i]) {
				cell = trimFloat(s.Y[i])
			}
			if i < len(s.Note) && s.Note[i] != "" {
				cell += " " + s.Note[i]
			}
			return cell
		}
	}
	return "-"
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func sumWidths(ws []int) int {
	total := 0
	for _, w := range ws {
		total += w
	}
	return total + 2*(len(ws)-1)
}
