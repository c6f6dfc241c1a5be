package main

import (
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"constable/internal/sim"
)

// median returns the median of xs (NaN for none).
func median(xs []float64) float64 {
	return quartiles(xs)[1]
}

// quartiles returns the first, second and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), which is
// how run-to-run spreads of this benchmark are judged. A single value is
// all three of its quartiles; no values give NaN.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// readMem returns the process's allocator statistics; TotalAlloc and
// Mallocs only grow, so differences measure what a phase allocated.
func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

const mib = 1 << 20

// processCPUTime returns the CPU time all of this process's threads have
// used. Set-up is timed in it: a set-up takes milliseconds, and its wall
// time doubled in spans when the hypervisor took the virtual CPUs away, in
// pieces as long as the set-up itself.
func processCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS starts a new peak-RSS window for this process, so that set-up
// and warm-up do not count in the timed phase's peak. Where the kernel does
// not allow it, the window stays the process's lifetime.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB returns this process's peak resident set size since the last
// resetPeakRSS.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64); err == nil {
					return v * 1024 / mib
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / mib // Linux reports kilobytes
}

// simClock times every sim.Run call a workload makes, so that every
// workload reports the simulator's own speed on its runs the same way.
type simClock struct {
	mu    sync.Mutex
	rates []float64 // simulated Minst per host second, one per call
}

// wrap returns run timed by c.
func (c *simClock) wrap(run func(sim.Options) (*sim.RunResult, error)) func(sim.Options) (*sim.RunResult, error) {
	return func(opts sim.Options) (*sim.RunResult, error) {
		t := time.Now()
		res, err := run(opts)
		if err == nil {
			insts := float64(res.Identity.Instructions) * float64(res.Identity.Threads)
			c.mu.Lock()
			c.rates = append(c.rates, insts/time.Since(t).Seconds()/1e6)
			c.mu.Unlock()
		}
		return res, err
	}
}

// take returns the rates recorded since the last take and forgets them.
func (c *simClock) take() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.rates
	c.rates = nil
	return r
}

// resultDigest condenses what a correct simulation must reproduce — its
// cycle count and every counter — into one value, so that a benchmark can
// check thousands of repeated cells without keeping their results.
type resultDigest struct {
	cycles   uint64
	counters uint64
	n        int
}

func digestOf(res *sim.RunResult) resultDigest {
	d := resultDigest{cycles: res.Cycles, n: len(res.Counters)}
	for name, v := range res.Counters {
		// Map order varies, so entries combine by addition.
		h := fnv.New64a()
		h.Write([]byte(name))
		d.counters += mix64(h.Sum64() ^ mix64(v))
	}
	return d
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
