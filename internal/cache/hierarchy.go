package cache

import (
	"constable/internal/isa"
	"constable/internal/stats"
)

// HierarchyConfig parameterizes a core's view of the memory hierarchy.
// Defaults follow Table 2 of the paper (Golden Cove-like).
type HierarchyConfig struct {
	L1D  Config
	L2   Config
	LLC  Config
	DRAM DRAMConfig

	StrideEntries  int
	StrideDegree   int
	StreamTrackers int
	StreamDegree   int
}

// DefaultHierarchyConfig returns the Table 2 configuration: 48 KB 12-way
// 5-cycle L1-D, 2 MB 16-way 12-cycle L2, 3 MB 12-way 50-cycle LLC slice with
// dead-block-aware replacement, DDR4-like DRAM.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1D:  Config{Name: "L1D", Sets: 64, Ways: 12, Latency: 5},
		L2:   Config{Name: "L2", Sets: 2048, Ways: 16, Latency: 12},
		LLC:  Config{Name: "LLC", Sets: 4096, Ways: 12, Latency: 50, DeadBlockAware: true},
		DRAM: DefaultDRAMConfig(),

		StrideEntries:  256,
		StrideDegree:   2,
		StreamTrackers: 64,
		StreamDegree:   2,
	}
}

// Hierarchy is one core's memory hierarchy: private L1-D and L2, an LLC
// slice (shareable between cores via SharedLLC), prefetchers and DRAM.
type Hierarchy struct {
	L1D  *Cache
	L2   *Cache
	LLC  *Cache
	DRAM *DRAM

	// l1pf is the pluggable L1-D prefetcher (stride by default; the
	// mechanism registry swaps in delta-pattern or none). stride is the
	// hierarchy's own default, which Reset puts back. streamL2 is the fixed
	// L2 next-line streamer.
	l1pf     L1Prefetcher
	stride   *StridePrefetcher
	streamL2 *Streamer

	// l1dPred, when attached, observes every demand load's hit/miss
	// outcome (measurement hardware; see L1DPredictor).
	l1dPred *L1DPredictor

	// Directory, when non-nil, is consulted on fills and evictions for
	// multi-core coherence; CoreID identifies this core to it.
	Directory *Directory
	CoreID    int

	// Counters.
	L1DLoadAccesses  uint64
	L1DStoreAccesses uint64
	DTLBAccesses     uint64
	L2Accesses       uint64
	LLCAccesses      uint64
	PrefetchFills    uint64
}

// NewHierarchy builds a hierarchy from cfg. Each call creates private
// caches; use SetSharedLLC to share an LLC between cores.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	stride := NewStridePrefetcher(cfg.StrideEntries, cfg.StrideDegree)
	return &Hierarchy{
		L1D:      NewCache(cfg.L1D),
		L2:       NewCache(cfg.L2),
		LLC:      NewCache(cfg.LLC),
		DRAM:     NewDRAM(cfg.DRAM),
		l1pf:     stride,
		stride:   stride,
		streamL2: NewStreamer(cfg.StreamTrackers, cfg.StreamDegree),
	}
}

// Reset restores, in place and without allocating, the state NewHierarchy
// built: every cache line invalid, clocks, counters, DRAM rows, stride table
// and streamer regions cleared, the default stride prefetcher attached, and
// no L1-D predictor, directory, core ID or eviction hook. It clears the LLC
// and DRAM currently attached, so a hierarchy whose LLC is shared through
// SetSharedLLC must not be reset while other cores use it.
func (h *Hierarchy) Reset() {
	h.L1D.reset()
	h.L2.reset()
	h.LLC.reset()
	h.DRAM.reset()
	h.stride.reset()
	h.streamL2.reset()
	*h = Hierarchy{L1D: h.L1D, L2: h.L2, LLC: h.LLC, DRAM: h.DRAM,
		l1pf: h.stride, stride: h.stride, streamL2: h.streamL2}
}

// SetL1Prefetcher replaces the L1-D prefetcher (nil disables prefetching
// outright; prefer NonePrefetcher so IssuedCount stays reportable).
func (h *Hierarchy) SetL1Prefetcher(p L1Prefetcher) { h.l1pf = p }

// L1Prefetcher returns the attached L1-D prefetcher.
func (h *Hierarchy) L1Prefetcher() L1Prefetcher { return h.l1pf }

// SetL1DPredictor attaches an L1-D hit/miss predictor to the demand-load
// stream (nil detaches).
func (h *Hierarchy) SetL1DPredictor(p *L1DPredictor) { h.l1dPred = p }

// L1DPredictor returns the attached hit/miss predictor (nil when absent).
func (h *Hierarchy) L1DPredictor() *L1DPredictor { return h.l1dPred }

// SetSharedLLC replaces this hierarchy's LLC and DRAM with shared instances
// (multi-core configuration).
func (h *Hierarchy) SetSharedLLC(llc *Cache, dram *DRAM) {
	h.LLC = llc
	h.DRAM = dram
}

// Load performs a demand load of addr for the static load at pc and returns
// the access latency in core cycles.
func (h *Hierarchy) Load(pc, addr uint64) int {
	h.L1DLoadAccesses++
	h.DTLBAccesses++
	la := LineAddr(addr)
	lat, l1hit := h.access(la, false)
	if h.l1dPred != nil {
		h.l1dPred.Observe(pc, l1hit)
	}

	// Train the L1 prefetcher and fill prefetches into L1.
	h.trainL1Prefetcher(pc, addr)
	return lat
}

// LoadPrefetch performs a register-file-prefetch access (RFP): it walks the
// hierarchy and fills like a load but does not train the L1 prefetcher —
// the predicted address stream would otherwise double-train and poison it.
func (h *Hierarchy) LoadPrefetch(addr uint64) int {
	h.L1DLoadAccesses++
	h.DTLBAccesses++
	lat, _ := h.access(LineAddr(addr), false)
	return lat
}

// TrainStride feeds a demand access into the attached L1 prefetcher without
// performing a cache access; used when the data itself was already fetched
// by a register-file prefetch but the prefetcher must keep seeing the true
// demand stream.
func (h *Hierarchy) TrainStride(pc, addr uint64) {
	h.trainL1Prefetcher(pc, addr)
}

func (h *Hierarchy) trainL1Prefetcher(pc, addr uint64) {
	if h.l1pf == nil {
		return
	}
	for _, pl := range h.l1pf.Observe(pc, addr) {
		if !h.L1D.Lookup(pl) {
			h.L1D.Fill(pl)
			h.PrefetchFills++
		}
	}
}

// Store performs a demand store of addr and returns its latency (stores
// commit from the store buffer; latency matters only for occupancy).
func (h *Hierarchy) Store(addr uint64) int {
	h.L1DStoreAccesses++
	h.DTLBAccesses++
	lat, _ := h.access(LineAddr(addr), true)
	return lat
}

// access walks the hierarchy for lineAddr and returns the total latency and
// whether the L1-D hit.
func (h *Hierarchy) access(lineAddr uint64, write bool) (int, bool) {
	lat := h.L1D.Config().Latency
	if h.L1D.Access(lineAddr, write) {
		if write && h.Directory != nil {
			h.Directory.OnStore(h.CoreID, lineAddr)
		}
		return lat, true
	}
	lat += h.L2.Config().Latency
	h.L2Accesses++
	l2hit := h.L2.Access(lineAddr, write)
	for _, pl := range h.streamL2.Observe(lineAddr) {
		if !h.L2.Lookup(pl) {
			h.L2.Fill(pl)
			h.PrefetchFills++
		}
	}
	if !l2hit {
		lat += h.LLC.Config().Latency
		h.LLCAccesses++
		if !h.LLC.Access(lineAddr, write) {
			lat += h.DRAM.Access(lineAddr * isa.CachelineBytes)
		}
	}
	if h.Directory != nil {
		h.Directory.OnFill(h.CoreID, lineAddr)
		if write {
			h.Directory.OnStore(h.CoreID, lineAddr)
		}
	}
	return lat, false
}

// InvalidateLine drops the line from the private levels (snoop handling).
func (h *Hierarchy) InvalidateLine(lineAddr uint64) {
	h.L1D.Invalidate(lineAddr)
	h.L2.Invalidate(lineAddr)
}

// Interned counter IDs for the hierarchy's prefetch and L1-D-predictor
// statistics.
var (
	cPrefetchL1Issued = stats.Intern("prefetch.l1_issued")
	cPrefetchL2Issued = stats.Intern("prefetch.l2_stream_issued")
	cPrefetchFills    = stats.Intern("prefetch.fills")
	cL1DPredLookups   = stats.Intern("l1dpred.lookups")
	cL1DPredHit       = stats.Intern("l1dpred.predicted_hit")
	cL1DPredMisp      = stats.Intern("l1dpred.mispredicts")
	cL1DPredHitsObs   = stats.Intern("l1dpred.hits_observed")
)

// EmitCounters adds the hierarchy's prefetcher and L1-D-predictor statistics
// into cs through the interned counter registry, so they reach the run's
// counter snapshot alongside the access counters sim.Run records.
func (h *Hierarchy) EmitCounters(cs *stats.CounterSet) {
	if h.l1pf != nil {
		cs.Add(cPrefetchL1Issued, h.l1pf.IssuedCount())
	}
	cs.Add(cPrefetchL2Issued, h.streamL2.Issued)
	cs.Add(cPrefetchFills, h.PrefetchFills)
	if p := h.l1dPred; p != nil {
		cs.Add(cL1DPredLookups, p.Lookups)
		cs.Add(cL1DPredHit, p.PredictedHit)
		cs.Add(cL1DPredMisp, p.Mispredicts)
		cs.Add(cL1DPredHitsObs, p.HitsObserved)
	}
}
