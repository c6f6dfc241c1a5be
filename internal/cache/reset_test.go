package cache

import (
	"reflect"
	"testing"
)

// dirtyHierarchy drives h through every level and every piece of state
// Reset must clear: demand loads and stores that miss to DRAM, hit in L2 and
// the LLC, and evict from the L1-D; stride, delta and streamer training; an
// invalidation; an eviction hook; an L1-D predictor; and a directory.
func dirtyHierarchy(h *Hierarchy) {
	h.L1D.OnEvict = func(uint64) {}
	h.Directory = NewDirectory(2)
	h.CoreID = 1
	h.SetL1DPredictor(NewL1DPredictor(DefaultL1DPredConfig()))
	for i := uint64(0); i < 4096; i++ {
		h.Load(0x400100, 0x1000_0000+i*64) // strided: trains stride and streamer
		h.Store(0x2000_0000 + i*64*64)     // conflicts in the L1-D set, dirty lines
	}
	h.SetL1Prefetcher(NewDeltaPrefetcher(DefaultPrefetchConfig()))
	for i := uint64(0); i < 1024; i++ {
		h.Load(0x400200, 0x3000_0000+i*8+(i%3)*128)
		h.Load(0x400300, 0x1000_0000+(i%512)*64) // L2 and LLC hits
	}
	// 20 lines 2048 lines apart share one L2 set (16 ways) but spread over
	// two LLC sets (12 ways each): the second pass misses L2 and hits the
	// LLC. A PC per line keeps the stride prefetcher out of the way.
	for range 2 {
		for i := uint64(0); i < 20; i++ {
			h.Load(0x400400+i*4, 0x4000_0000+i*2048*64)
		}
	}
	h.InvalidateLine(LineAddr(0x1000_0000))
}

func TestHierarchyResetMatchesFresh(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h := NewHierarchy(cfg)
	dirtyHierarchy(h)
	if h.L2.Hits == 0 || h.LLC.Hits == 0 || h.DRAM.Accesses == 0 || h.PrefetchFills == 0 {
		t.Fatalf("dirtying missed a level: L2 hits %d, LLC hits %d, DRAM %d, prefetch fills %d",
			h.L2.Hits, h.LLC.Hits, h.DRAM.Accesses, h.PrefetchFills)
	}
	if reflect.DeepEqual(h, NewHierarchy(cfg)) {
		t.Fatal("a dirtied hierarchy already equals a fresh one; the check proves nothing")
	}
	h.Reset()
	if !reflect.DeepEqual(h, NewHierarchy(cfg)) {
		t.Fatal("Reset left state a fresh NewHierarchy does not have")
	}
}

func TestNewCacheAllocatesLinesOnce(t *testing.T) {
	cfg := DefaultHierarchyConfig().L2
	var c *Cache
	allocs := testing.AllocsPerRun(10, func() { c = NewCache(cfg) })
	// The Cache itself and one array for every line of every set.
	if allocs > 2 {
		t.Errorf("NewCache made %v allocations, want at most 2", allocs)
	}
	if len(c.lines) != cfg.Sets*cfg.Ways {
		t.Errorf("%d lines, want %d", len(c.lines), cfg.Sets*cfg.Ways)
	}
}

func TestWarmStridedLoadsDoNotAllocate(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	addr := uint64(0x1000_0000)
	load := func() {
		h.Load(0x400100, addr)
		addr += 64
	}
	for range 1024 {
		load()
	}
	fills := h.PrefetchFills
	if allocs := testing.AllocsPerRun(4096, load); allocs != 0 {
		t.Errorf("a warmed strided Load allocates %v times, want 0", allocs)
	}
	if h.PrefetchFills == fills || h.streamL2.Issued == 0 {
		t.Error("the stream never triggered the stride prefetcher and the streamer")
	}
}
