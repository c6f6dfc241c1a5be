package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's host is a small share of a machine it shares with others.
// Their load slows the simulator by up to 1.7x, in phases that last from
// seconds to minutes, in two ways: they contend for caches, memory and the
// core's front end, which slows the code while it runs, and the hypervisor
// gives the virtual CPUs to them for a while — at times more than half of
// the time over a whole run — which the guest kernel counts as stolen. Neither
// longer runs nor medians remove phases that last longer than a run, so the
// host times of two sets of runs of one commit would differ by more than
// any useful bound.
//
// A hostMeter measures both as they happen. While a workload runs, it
// times a fixed reference pass every refPeriod on a thread of its own, in
// thread CPU time, which counts neither the time stolen nor the time spent
// waiting behind the workload's own threads; and it reads the share of
// busy CPU time the machine had stolen over the run from /proc/stat. Host
// times are reported scaled (see hostReading): as they would read on the
// sizing machine at its usual speed, with its CPUs to itself. In one set
// of ten artifacts runs in which the machine lost 6% to 57% of its CPU
// time, the run time varied by 50% (interquartile range over median), and
// by 10% scaled.
//
// The pass is branchy, cache-hungry standard-library code — JSON scanning,
// map inserts and string sorting — that slows down with the simulator. On
// that machine, over 20-second windows of nine minutes of simulations
// beside the meter, the median simulation time varied by 17% (interquartile
// range over median) and its ratio to the median pass by 6%; against a pass
// of random accesses to an 8 MiB table, which slows down less than the
// simulator in some phases and more in others, the ratio varied by 9%.
type hostMeter struct {
	stop, done chan struct{}
	mu         sync.Mutex
	passes     []float64 // thread CPU milliseconds of each reference pass
	start      cpuTicks
	startErr   error
}

// hostReading is what a hostMeter measured over a run.
type hostReading struct {
	refMS      float64 // the median reference pass, in thread CPU milliseconds
	stealShare float64 // the share of busy CPU time the hypervisor took
}

// speed is the factor that turns a CPU time measured over the run into one
// on the sizing machine at its usual speed: a slower machine stretches it
// by refMS/refNominal.
func (h hostReading) speed() float64 {
	return refNominal / h.refMS
}

// scale is the factor that turns a wall time measured over the run into one
// on the sizing machine at its usual speed with its CPUs to itself; rates
// divide by it. Stolen time stretches a CPU-bound wall time by a further
// 1/(1 - stealShare).
func (h hostReading) scale() float64 {
	return h.speed() * (1 - h.stealShare)
}

const (
	// refKeys is the number of map keys and strings a pass inserts and
	// sorts. A pass takes 6 to 10 ms, within the Go scheduler's 10 ms time
	// slice.
	refKeys = 20_000
	// refPeriod is the time between the starts of two passes: the meter
	// takes about 4% of one CPU.
	refPeriod = 200 * time.Millisecond
	// refNominal is the median pass, in milliseconds, over the runs the
	// benchmark was sized with on a 2-vCPU machine. It only sets the scale
	// of the reported host times.
	refNominal = 8.5
)

func startHostMeter() *hostMeter {
	m := &hostMeter{stop: make(chan struct{}), done: make(chan struct{})}
	m.start, m.startErr = readCPUTicks()
	go m.run(newRefWork())
	return m
}

func (m *hostMeter) run(w *refWork) {
	defer close(m.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w.pass() // grow the map, untimed
	tick := time.NewTicker(refPeriod)
	defer tick.Stop()
	for {
		t0, err := threadCPUTime()
		w.pass()
		t1, err1 := threadCPUTime()
		if err != nil || err1 != nil {
			return // no passes: finish reports the meter failed
		}
		m.mu.Lock()
		m.passes = append(m.passes, ms(t1-t0))
		m.mu.Unlock()
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops the meter, waits for its thread, and returns what it
// measured.
func (m *hostMeter) finish() (hostReading, error) {
	close(m.stop)
	<-m.done
	end, err := readCPUTicks()
	if err = errors.Join(m.startErr, err); err != nil {
		return hostReading{}, fmt.Errorf("host meter: %w", err)
	}
	if len(m.passes) == 0 {
		return hostReading{}, errors.New("host meter: no reference pass was timed")
	}
	h := hostReading{refMS: median(m.passes)}
	if busy, steal := end.busy-m.start.busy, end.steal-m.start.steal; busy+steal > 0 {
		h.stealShare = float64(steal) / float64(busy+steal)
	}
	return h, nil
}

// cpuTicks is the machine's CPU time since boot, from the first line of
// /proc/stat, in clock ticks.
type cpuTicks struct{ busy, steal uint64 }

func readCPUTicks() (cpuTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return cpuTicks{}, fmt.Errorf("/proc/stat: %w", err)
		}
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// refWork is the reference pass's fixed input and the buffers it reuses. A
// pass allocates nothing, and nothing here holds a pointer, so the meter
// adds no work to the workload's garbage collection: with 20000 strings in
// a map, it slowed the short simulations of sweep-short by 17%.
type refWork struct {
	doc    []byte   // a JSON document of about 100 KB
	nums   []uint32 // refKeys pseudo-random numbers
	text   []byte   // their decimal forms, back to back
	ends   []uint32 // where each form ends in text
	order  []uint32 // indexes of nums, sorted by decimal form in a pass
	counts map[uint32]uint32
	sink   uint32 // keeps the pass from being optimized away
}

func newRefWork() *refWork {
	type record struct {
		Name string    `json:"name"`
		ID   int       `json:"id"`
		Vals []float64 `json:"vals"`
		Tags []string  `json:"tags"`
	}
	records := make([]record, 400)
	for i := range records {
		r := &records[i]
		r.Name, r.ID = "rec-"+strconv.Itoa(i*7919), i
		for j := range 8 {
			r.Vals = append(r.Vals, float64(i*j)/3)
			r.Tags = append(r.Tags, "t"+strconv.Itoa(i^j))
		}
	}
	doc, err := json.Marshal(records)
	if err != nil {
		panic(err) // the records are plain values
	}
	w := &refWork{doc: doc, nums: make([]uint32, refKeys), ends: make([]uint32, refKeys),
		order: make([]uint32, refKeys), counts: map[uint32]uint32{}}
	for i := range w.nums {
		w.nums[i] = uint32(i * 2654435761 % 1000003)
		w.text = strconv.AppendUint(w.text, uint64(w.nums[i]), 10)
		w.ends[i] = uint32(len(w.text))
	}
	return w
}

// word returns the decimal form of nums[i].
func (w *refWork) word(i uint32) []byte {
	start := uint32(0)
	if i > 0 {
		start = w.ends[i-1]
	}
	return w.text[start:w.ends[i]]
}

func (w *refWork) pass() {
	if json.Valid(w.doc) {
		w.sink++
	}
	clear(w.counts)
	for i, n := range w.nums {
		w.counts[n] += uint32(i)
	}
	for i := range w.order {
		w.order[i] = uint32(i)
	}
	slices.SortFunc(w.order, func(a, b uint32) int { return bytes.Compare(w.word(a), w.word(b)) })
	w.sink += uint32(len(w.counts)) + w.order[0]
}

// threadCPUTime returns the CPU time the calling thread has used.
func threadCPUTime() (time.Duration, error) {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID on Linux
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}
