// Package stats provides the counter and summary-statistics utilities used
// by the simulator and the experiment drivers: an interned counter registry
// with slice-backed hot-path counter sets (Intern, CounterSet, Snapshot),
// geometric means of speedups, and box-and-whiskers summaries matching the
// paper's plotting conventions (§6.7.1 footnote 10).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Geomean returns the geometric mean of xs. It returns 1.0 for an empty
// slice and panics on non-positive values, which would indicate a broken
// speedup computation upstream.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1.0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: geomean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (zero for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Ratio returns num/den, or 0 when den is zero.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// BoxPlot summarises a distribution the way the paper's box-and-whiskers
// figures do: quartile box, 1.5×IQR whiskers, and the mean marked inside the
// box.
type BoxPlot struct {
	Min, Q1, Median, Q3, Max float64
	WhiskerLo, WhiskerHi     float64
	Mean                     float64
	N                        int
}

// NewBoxPlot computes the box-plot summary of xs. An empty input yields the
// zero BoxPlot.
func NewBoxPlot(xs []float64) BoxPlot {
	if len(xs) == 0 {
		return BoxPlot{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	bp := BoxPlot{
		Min:    s[0],
		Max:    s[len(s)-1],
		Q1:     Percentile(s, 25),
		Median: Percentile(s, 50),
		Q3:     Percentile(s, 75),
		Mean:   Mean(s),
		N:      len(s),
	}
	iqr := bp.Q3 - bp.Q1
	bp.WhiskerLo = math.Max(bp.Min, bp.Q1-1.5*iqr)
	bp.WhiskerHi = math.Min(bp.Max, bp.Q3+1.5*iqr)
	return bp
}

// Percentile returns the p-th percentile (0..100) of the sorted slice s
// using linear interpolation.
func Percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// String renders the box-plot summary on one line.
func (b BoxPlot) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g mean=%.4g q3=%.4g max=%.4g",
		b.N, b.Min, b.Q1, b.Median, b.Mean, b.Q3, b.Max)
}

// SpeedupTable is a category → configuration → geomean-speedup table, the
// shape of most of the paper's bar charts (Figs. 7, 11, 13, 14, 15, 22).
type SpeedupTable struct {
	Categories []string    // row order
	Configs    []string    // column order
	Cells      [][]float64 // [category][config]
}

// NewSpeedupTable allocates a table with the given rows and columns.
func NewSpeedupTable(categories, configs []string) *SpeedupTable {
	cells := make([][]float64, len(categories))
	for i := range cells {
		cells[i] = make([]float64, len(configs))
	}
	return &SpeedupTable{Categories: categories, Configs: configs, Cells: cells}
}

// Set stores a value; unknown names panic (driver bug).
func (t *SpeedupTable) Set(category, config string, v float64) {
	t.Cells[t.rowIndex(category)][t.colIndex(config)] = v
}

// Get returns a cell value.
func (t *SpeedupTable) Get(category, config string) float64 {
	return t.Cells[t.rowIndex(category)][t.colIndex(config)]
}

func (t *SpeedupTable) rowIndex(category string) int {
	for i, c := range t.Categories {
		if c == category {
			return i
		}
	}
	panic("stats: unknown category " + category)
}

func (t *SpeedupTable) colIndex(config string) int {
	for i, c := range t.Configs {
		if c == config {
			return i
		}
	}
	panic("stats: unknown config " + config)
}

// String renders the table with categories as rows.
func (t *SpeedupTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "")
	for _, c := range t.Configs {
		fmt.Fprintf(&b, "%16s", c)
	}
	b.WriteByte('\n')
	for i, cat := range t.Categories {
		fmt.Fprintf(&b, "%-14s", cat)
		for j := range t.Configs {
			fmt.Fprintf(&b, "%16.4f", t.Cells[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
