package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestInternStableIDs(t *testing.T) {
	a := Intern("test.registry.alpha")
	b := Intern("test.registry.beta")
	if a == b {
		t.Fatal("distinct names must get distinct IDs")
	}
	if again := Intern("test.registry.alpha"); again != a {
		t.Errorf("re-interning returned %d, want %d", again, a)
	}
	if got := CounterName(a); got != "test.registry.alpha" {
		t.Errorf("CounterName = %q", got)
	}
	if CounterName(-1) != "" || CounterName(CounterID(1<<30)) != "" {
		t.Error("out-of-range CounterName must be empty")
	}
	if NumCounters() < 2 {
		t.Errorf("NumCounters = %d", NumCounters())
	}
}

func TestInternConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	ids := make([]CounterID, 16)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = Intern("test.registry.concurrent")
		}(i)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("concurrent interns disagree: %v", ids)
		}
	}
}

func TestCounterSet(t *testing.T) {
	x := Intern("test.set.x")
	y := Intern("test.set.y")
	var s CounterSet
	if s.Get(y) != 0 {
		t.Error("untouched counter must be zero")
	}
	s.Inc(x)
	s.Add(x, 4)
	s.Add(y, 2)
	if s.Get(x) != 5 || s.Get(y) != 2 {
		t.Errorf("got x=%d y=%d", s.Get(x), s.Get(y))
	}
	snap := s.Snapshot()
	if snap.Get("test.set.x") != 5 || snap.Get("test.set.y") != 2 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestSnapshotMergeFilterJSON(t *testing.T) {
	a := Snapshot{"pipeline.cycles": 10, "constable.eliminated": 3}
	b := Snapshot{"pipeline.cycles": 5, "pipeline.retired": 7}
	a.Merge(b)
	if a["pipeline.cycles"] != 15 || a["pipeline.retired"] != 7 {
		t.Errorf("merge = %v", a)
	}
	f := a.Filter("pipeline.")
	if len(f) != 2 || f["constable.eliminated"] != 0 {
		t.Errorf("filter = %v", f)
	}
	names := a.Names()
	if len(names) != 3 || names[0] != "constable.eliminated" {
		t.Errorf("names = %v", names)
	}
	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back["pipeline.cycles"] != 15 {
		t.Errorf("round-trip = %v", back)
	}
}

func TestGeomeanEdgeCases(t *testing.T) {
	if g := Geomean([]float64{}); g != 1.0 {
		t.Errorf("geomean of empty slice = %v, want the neutral speedup 1.0", g)
	}
	for _, zeros := range [][]float64{{0}, {0, 0, 0}, {1.5, 0, 2.0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geomean(%v) must panic: a zero speedup means a broken upstream computation", zeros)
				}
			}()
			Geomean(zeros)
		}()
	}
}

// Satellite edge cases: box-and-whiskers summaries of fewer than 4 samples,
// where quartiles interpolate between the few points available.
func TestBoxPlotFewSamples(t *testing.T) {
	one := NewBoxPlot([]float64{5})
	if one.N != 1 || one.Min != 5 || one.Max != 5 || one.Median != 5 ||
		one.Q1 != 5 || one.Q3 != 5 || one.Mean != 5 {
		t.Errorf("single-sample boxplot = %+v", one)
	}
	if one.WhiskerLo != 5 || one.WhiskerHi != 5 {
		t.Errorf("single-sample whiskers = %+v", one)
	}

	two := NewBoxPlot([]float64{1, 3})
	if two.Median != 2 || two.Min != 1 || two.Max != 3 {
		t.Errorf("two-sample boxplot = %+v", two)
	}
	if two.Q1 != 1.5 || two.Q3 != 2.5 {
		t.Errorf("two-sample quartiles = %+v", two)
	}

	three := NewBoxPlot([]float64{2, 4, 6})
	if three.Median != 4 || three.Q1 != 3 || three.Q3 != 5 || math.Abs(three.Mean-4) > 1e-12 {
		t.Errorf("three-sample boxplot = %+v", three)
	}
	// Whiskers are clamped to the observed extremes.
	if three.WhiskerLo < three.Min || three.WhiskerHi > three.Max {
		t.Errorf("whiskers outside data range: %+v", three)
	}
}

// BenchmarkCountersHotPath measures the interned slice-backed CounterSet on
// the simulator's hot-path pattern: a handful of distinct counters bumped
// millions of times.
func BenchmarkCountersHotPath(b *testing.B) {
	ids := make([]CounterID, 8)
	for i := range ids {
		ids[i] = Intern(fmt.Sprintf("bench.hotpath.c%d", i))
	}
	var s CounterSet
	for i := 0; i < b.N; i++ {
		s.Inc(ids[i&7])
	}
}
