package service

import (
	"fmt"
	"sync"
	"testing"

	"constable/internal/pipeline"
	"constable/internal/sim"
	"constable/internal/stats"
)

func TestCacheEviction(t *testing.T) {
	c := newResultCache(3)
	for i := 0; i < 5; i++ {
		c.Add(fmt.Sprintf("k%d", i), &sim.RunResult{Cycles: uint64(i)})
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	// k0, k1 evicted; k2..k4 resident.
	for _, k := range []string{"k0", "k1"} {
		if _, ok := c.get(k, true); ok {
			t.Errorf("%s still cached after eviction", k)
		}
	}
	for i := 2; i < 5; i++ {
		k := fmt.Sprintf("k%d", i)
		res, ok := c.get(k, true)
		if !ok || res.Cycles != uint64(i) {
			t.Errorf("%s: got %v, %v", k, res, ok)
		}
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c := newResultCache(2)
	c.Add("a", &sim.RunResult{})
	c.Add("b", &sim.RunResult{})
	c.get("a", true)  // promote a; b is now LRU
	c.get("b", false) // a quiet read does not promote b
	c.Add("c", &sim.RunResult{})
	if _, ok := c.get("a", true); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := c.get("b", true); ok {
		t.Error("least recently used entry survived")
	}
}

func TestCacheHitRate(t *testing.T) {
	c := newResultCache(8)
	c.Add("x", &sim.RunResult{})
	c.get("x", true)
	c.get("x", true)
	c.get("y", true)
	c.get("x", false) // quiet reads count neither hits nor misses
	c.get("y", false)
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", hits, misses)
	}
}

func TestCacheDisabled(t *testing.T) {
	for _, capacity := range []int{-1, 0} {
		c := newResultCache(capacity)
		c.Add("a", &sim.RunResult{})
		if _, ok := c.get("a", true); ok {
			t.Errorf("cache with capacity %d stored an entry", capacity)
		}
	}
}

// TestCacheHitsAreIsolated is the regression test for the aliasing bug: a
// caller mutating a result it inserted or received must never corrupt what
// later hits observe.
func TestCacheHitsAreIsolated(t *testing.T) {
	c := newResultCache(8)
	orig := &sim.RunResult{
		Cycles:   100,
		Counters: stats.Snapshot{"pipeline.retired": 5000},
		Mechanisms: []sim.MechanismStats{
			{Name: "constable", Counters: stats.Snapshot{"constable.eliminated": 7}},
		},
		Pipeline: pipeline.Stats{EliminatedByMode: map[string]uint64{"base+disp": 3}},
	}
	c.Add("k", orig)

	// Mutating the inserted original must not reach the cache.
	orig.Cycles = 1
	orig.Counters["pipeline.retired"] = 1
	orig.Mechanisms[0].Counters["constable.eliminated"] = 1
	orig.Pipeline.EliminatedByMode["base+disp"] = 1

	first, ok := c.get("k", true)
	if !ok {
		t.Fatal("miss")
	}
	if first.Cycles != 100 || first.Counters.Get("pipeline.retired") != 5000 {
		t.Errorf("insert-side mutation reached the cache: %+v", first)
	}

	// Mutating a hit must not corrupt later hits.
	first.Cycles = 2
	first.Counters["pipeline.retired"] = 2
	first.Mechanisms[0].Counters["constable.eliminated"] = 2
	first.Pipeline.EliminatedByMode["base+disp"] = 2

	second, ok := c.get("k", true)
	if !ok {
		t.Fatal("miss")
	}
	if second.Cycles != 100 ||
		second.Counters.Get("pipeline.retired") != 5000 ||
		second.Mechanisms[0].Counters.Get("constable.eliminated") != 7 ||
		second.Pipeline.EliminatedByMode["base+disp"] != 3 {
		t.Errorf("hit-side mutation corrupted the cache: %+v", second)
	}
}

// TestCacheConcurrentHitMutation hammers concurrent hits on one entry while
// every goroutine mutates its copy — run under -race (CI does), this fails
// loudly if hits ever share state.
func TestCacheConcurrentHitMutation(t *testing.T) {
	c := newResultCache(4)
	c.Add("k", &sim.RunResult{
		Cycles:   100,
		Counters: stats.Snapshot{"pipeline.retired": 5000},
		Pipeline: pipeline.Stats{EliminatedByMode: map[string]uint64{"base+disp": 3}},
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				res, ok := c.get("k", true)
				if !ok {
					t.Error("miss")
					return
				}
				if res.Cycles != 100 || res.Counters.Get("pipeline.retired") != 5000 {
					t.Errorf("goroutine %d saw another goroutine's mutation: %+v", g, res)
					return
				}
				res.Cycles = uint64(g)
				res.Counters["pipeline.retired"] = uint64(i)
				res.Pipeline.EliminatedByMode["base+disp"] = uint64(g * i)
			}
		}(g)
	}
	wg.Wait()
}
