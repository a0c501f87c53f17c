package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("stddev %v", s.StdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.Mean != 42 || s.Median != 42 || s.P95 != 42 || s.StdDev != 0 {
		t.Fatalf("single summary %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestQuantileBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		s := Summarize(vals)
		return s.Min <= s.Median && s.Median <= s.P95 && s.P95 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sampleTable() *Table {
	return &Table{
		Title:  "Fig X",
		XLabel: "load",
		YLabel: "latency (cycles)",
		Series: []Series{
			{Label: "tree", X: []float64{0.1, 0.2}, Y: []float64{100, 120}},
			{Label: "path", X: []float64{0.1, 0.2}, Y: []float64{150, 400}, Note: []string{"", "SAT"}},
		},
	}
}

func TestRenderContainsAllCells(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig X", "load", "tree", "path", "100", "120", "150", "400", "SAT", "latency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderMissingPoints(t *testing.T) {
	tab := &Table{
		Title: "gap", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Label: "b", X: []float64{2}, Y: []float64{99}},
		},
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "-") {
		t.Fatal("missing point not rendered as -")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // header + 4 points
		t.Fatalf("csv lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[4], "SAT") {
		t.Fatal("csv lost the note")
	}
}

func TestCSVEscaping(t *testing.T) {
	tab := &Table{Title: `has,comma "q"`, XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "s", X: []float64{1}, Y: []float64{2}}}}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"has,comma ""q"""`) {
		t.Fatalf("escaping wrong: %s", buf.String())
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{2, 4}) != 3 {
		t.Fatal("Mean broken")
	}
}
