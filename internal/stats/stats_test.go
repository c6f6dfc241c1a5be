package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	if g := Geomean(nil); g != 1.0 {
		t.Errorf("empty geomean = %v, want 1", g)
	}
	got := Geomean([]float64{2, 8})
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("geomean of non-positive must panic")
		}
	}()
	Geomean([]float64{1, 0})
}

func TestGeomeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			x = math.Abs(x)
			if x > 1e-9 && x < 1e9 && !math.IsNaN(x) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := Geomean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return g >= lo*(1-1e-9) && g <= hi*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanAndRatio(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
	if m := Mean([]float64{1, 2, 3}); math.Abs(m-2) > 1e-12 {
		t.Errorf("mean = %v", m)
	}
	if Ratio(1, 0) != 0 {
		t.Error("ratio with zero denominator must be 0")
	}
	if r := Ratio(3, 4); math.Abs(r-0.75) > 1e-12 {
		t.Errorf("ratio = %v", r)
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if p := Percentile(s, 50); p != 3 {
		t.Errorf("median = %v", p)
	}
	if p := Percentile(s, 0); p != 1 {
		t.Errorf("p0 = %v", p)
	}
	if p := Percentile(s, 100); p != 5 {
		t.Errorf("p100 = %v", p)
	}
	if p := Percentile([]float64{7}, 50); p != 7 {
		t.Errorf("single-element percentile = %v", p)
	}
	if p := Percentile(nil, 50); p != 0 {
		t.Errorf("empty percentile = %v", p)
	}
}

func TestBoxPlot(t *testing.T) {
	bp := NewBoxPlot([]float64{1, 2, 3, 4, 100})
	if bp.N != 5 || bp.Min != 1 || bp.Max != 100 || bp.Median != 3 {
		t.Errorf("boxplot = %+v", bp)
	}
	if bp.WhiskerHi >= 100 {
		t.Errorf("outlier 100 must be outside the whisker, got hi=%v", bp.WhiskerHi)
	}
	zero := NewBoxPlot(nil)
	if zero.N != 0 {
		t.Error("empty boxplot must have N=0")
	}
	if !strings.Contains(bp.String(), "n=5") {
		t.Error("String() must include n")
	}
}

func TestBoxPlotOrderInvariant(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		a := NewBoxPlot(clean)
		rev := make([]float64, len(clean))
		for i, x := range clean {
			rev[len(clean)-1-i] = x
		}
		b := NewBoxPlot(rev)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpeedupTable(t *testing.T) {
	tbl := NewSpeedupTable([]string{"A", "B"}, []string{"c1", "c2"})
	tbl.Set("A", "c2", 1.25)
	if got := tbl.Get("A", "c2"); got != 1.25 {
		t.Errorf("Get = %v", got)
	}
	if got := tbl.Get("B", "c1"); got != 0 {
		t.Errorf("unset cell = %v", got)
	}
	s := tbl.String()
	if !strings.Contains(s, "c1") || !strings.Contains(s, "A") {
		t.Error("String() must include headers")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown category must panic")
		}
	}()
	tbl.Set("Z", "c1", 1)
}
