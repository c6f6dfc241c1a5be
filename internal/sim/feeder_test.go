package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"constable/internal/cache"
	"constable/internal/fsim"
	"constable/internal/isa"
	"constable/internal/pipeline"
	"constable/internal/trace"
	"constable/internal/workload"
)

// parkedMachines returns the free list's machines, checking that each one's
// feeders have been stopped and joined with every batch back on their free
// channel.
func parkedMachines(t *testing.T) []*machine {
	t.Helper()
	machines.Lock()
	defer machines.Unlock()
	for _, m := range machines.free {
		for i, f := range m.feeders {
			if f.running || f.src != nil || f.cur != nil || f.spare != nil || len(f.free) != feedBatches || len(f.full) != 0 {
				t.Errorf("parked machine's feeder %d: running %v, holds stream %v, holds a batch %v, %d of %d batches free",
					i, f.running, f.src != nil, f.cur != nil || f.spare != nil, len(f.free), feedBatches)
			}
		}
	}
	return append([]*machine(nil), machines.free...)
}

// dropMachines empties the free list, so the next run builds a new machine.
func dropMachines() {
	machines.Lock()
	machines.free = nil
	machines.Unlock()
}

// TestFeederBudgets runs budgets around the feeder's batch size: each
// retires exactly its budget.
func TestFeederBudgets(t *testing.T) {
	w := spec(t, "server-kvstore-00")
	for _, n := range []uint64{1, feedBatchLen - 1, feedBatchLen, feedBatchLen + 1, 4000} {
		for _, threads := range []int{1, 2} {
			res, err := Run(Options{Workload: w, Instructions: n, Threads: threads})
			if err != nil {
				t.Fatalf("budget %d, %d threads: %v", n, threads, err)
			}
			if want := n * uint64(threads); res.Pipeline.Retired != want {
				t.Errorf("budget %d, %d threads: retired %d, want %d", n, threads, res.Pipeline.Retired, want)
			}
		}
	}
	parkedMachines(t)
}

// panicStream yields n instructions and then panics, like a functional
// model that runs off its code image.
type panicStream struct{ n int }

func (s *panicStream) Next() (isa.DynInst, bool) {
	if s.n == 0 {
		panic("stream broke")
	}
	s.n--
	return isa.DynInst{}, true
}

func (s *panicStream) Err() error { return nil }

// TestFeederReraisesStreamPanic checks that a panic on the producer's
// goroutine ends the core's stream and is raised again by halt on the
// caller's goroutine, leaving the feeder ready for its next stream.
func TestFeederReraisesStreamPanic(t *testing.T) {
	f := newFeeder()
	f.start(&panicStream{n: feedBatchLen + 10})
	got := 0
	for _, ok := f.Next(); ok; _, ok = f.Next() {
		got++
	}
	if got != feedBatchLen {
		t.Errorf("the core read %d instructions before the stream ended, want the %d of the full batch", got, feedBatchLen)
	}
	func() {
		defer func() {
			if r := recover(); r != "stream broke" {
				t.Errorf("halt raised %v, want the stream's panic", r)
			}
		}()
		f.halt()
	}()
	if f.running || f.cur != nil || f.spare != nil || len(f.free) != feedBatches {
		t.Fatal("halt left the feeder running or holding batches")
	}
	f.start(&panicStream{n: 3 * feedBatchLen})
	for range 2 * feedBatchLen {
		if _, ok := f.Next(); !ok {
			t.Fatal("the restarted feeder ended early")
		}
	}
	defer func() { recover() }() // the second stream's panic, raised or not
	f.halt()
}

// corruptTrace returns a trace-backed spec of n instructions whose last
// record no longer decodes. FromTraceBytes validates the bytes it is given,
// so they are damaged after it returns: replay then meets the decode error
// mid-run, on the feeder's goroutine.
func corruptTrace(t *testing.T, n uint64) *workload.Spec {
	t.Helper()
	cpu, err := workload.SmallSuite()[0].NewCPU(false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trace.Capture(&buf, fsim.NewStream(cpu, n), n); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	w, err := workload.FromTraceBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) - 12; i < len(data); i++ {
		data[i] = 0xFF
	}
	return w
}

// TestFeederCorruptTraceError checks that a decode error met mid-run is
// reported as the stream's own error, that the run's feeder has been joined
// when Run returns, and that the machine it leaves behind runs the next
// simulation exactly as a new machine does.
func TestFeederCorruptTraceError(t *testing.T) {
	w := corruptTrace(t, 3000)
	st, err := w.NewStream(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ok := st.Next(); ok; _, ok = st.Next() {
	}
	if st.Err() == nil {
		t.Fatal("the damaged trace replays without a decode error")
	}
	want := "sim " + w.Name + ": " + st.Err().Error()

	dropMachines()
	for _, threads := range []int{1, 2} {
		_, err := Run(Options{Workload: w, Instructions: 3000, Threads: threads})
		if err == nil || err.Error() != want {
			t.Fatalf("%d threads: Run error %v, want %s", threads, err, want)
		}
	}
	if n := len(parkedMachines(t)); n != 1 {
		t.Fatalf("%d machines parked after two sequential runs, want 1", n)
	}

	next := Options{Workload: spec(t, "server-kvstore-00"), Instructions: 5000, Threads: 2,
		Mech: Mechanism{Constable: true}}
	reused, err := Run(next)
	if err != nil {
		t.Fatal(err)
	}
	dropMachines()
	fresh, err := Run(next)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reused, fresh) {
		t.Error("the run after a failed run differs from the same run on a new machine")
	}
}

// TestMachineFreeListReusesOneMachine runs simulations one after another,
// each from a goroutine of its own and some after garbage collections: they
// all share one machine, which a sync.Pool did not guarantee (it empties on
// two collections, and the race detector makes it drop items at random).
func TestMachineFreeListReusesOneMachine(t *testing.T) {
	dropMachines()
	opts := Options{Workload: spec(t, "server-kvstore-00"), Instructions: 1000}
	var first *machine
	for i := range 100 {
		if i%10 == 9 {
			runtime.GC()
			runtime.GC()
		}
		errc := make(chan error)
		go func() {
			_, err := Run(opts)
			errc <- err
		}()
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		parked := parkedMachines(t)
		if len(parked) != 1 {
			t.Fatalf("run %d: %d machines parked, want 1", i, len(parked))
		}
		if first == nil {
			first = parked[0]
		} else if parked[0] != first {
			t.Fatalf("run %d built a new machine", i)
		}
	}
}

// TestFeederMatchesRawStreams checks that feeding the core from a feeder
// changes nothing: SMT1 and SMT2, APX off and on, runs through Run equal a
// core NewCore drives over the workload streams directly.
func TestFeederMatchesRawStreams(t *testing.T) {
	const n = 6000
	for _, w := range workload.SmallSuite()[:6] {
		for _, mech := range []string{"baseline", "constable", "eves+constable"} {
			m, err := MechanismByName(mech)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 2} {
				for _, apx := range []bool{false, true} {
					res, err := Run(Options{Workload: w, Instructions: n, Threads: threads, APX: apx, Mech: m})
					if err != nil {
						t.Fatal(err)
					}
					att, cons, _, err := m.NewAttachments()
					if err != nil {
						t.Fatal(err)
					}
					streams := make([]pipeline.Stream, threads)
					for i := range streams {
						if streams[i], err = w.NewStream(apx, n); err != nil {
							t.Fatal(err)
						}
					}
					cfg := pipeline.DefaultConfig()
					cfg.Threads = threads
					core := pipeline.NewCore(cfg, att, cache.NewHierarchy(cache.DefaultHierarchyConfig()), streams...)
					if err := core.Run(1_000_000); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.Pipeline, core.Stats) {
						t.Errorf("%s %s SMT%d apx=%v: core Stats differ from a core over the raw streams",
							w.Name, mech, threads, apx)
					}
					if cons != nil && !reflect.DeepEqual(res.Constable, cons.Stats) {
						t.Errorf("%s %s SMT%d apx=%v: Constable Stats differ from a core over the raw streams",
							w.Name, mech, threads, apx)
					}
				}
			}
		}
	}
}
