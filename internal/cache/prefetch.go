package cache

import "fmt"

// PrefetchConfig parameterizes the PC-indexed L1-D prefetchers (stride and
// delta-pattern). It is a plain comparable value: the mechanism registry
// relies on == to normalize default-equal overrides.
type PrefetchConfig struct {
	// Entries is the PC-indexed table size; it is rounded up to the next
	// power of two so the hot-path index is a mask, never a modulo.
	Entries int `json:"entries"`
	// Degree is how many lines ahead a confident entry prefetches.
	Degree int `json:"degree"`
	// Threshold is the confidence a training entry must reach before it
	// issues prefetches; MaxConf is the saturation cap.
	Threshold int `json:"threshold"`
	MaxConf   int `json:"max_conf"`
	// Deltas is the per-PC delta-history depth of the delta-pattern
	// variant (ignored by the stride variant), at most MaxDeltaHist.
	Deltas int `json:"deltas"`
}

// MaxDeltaHist caps the delta-history ring so a table entry stays a fixed-
// size value.
const MaxDeltaHist = 8

// DefaultPrefetchConfig returns the Table 2 L1-D prefetcher parameters
// (256-entry PC table, degree 2, issue at confidence 2 of 3).
func DefaultPrefetchConfig() PrefetchConfig {
	return PrefetchConfig{Entries: 256, Degree: 2, Threshold: 2, MaxConf: 3, Deltas: 6}
}

// Validate reports whether the configuration describes a buildable
// prefetcher.
func (c PrefetchConfig) Validate() error {
	if c.Entries < 1 || c.Entries > 1<<20 {
		return fmt.Errorf("cache: prefetch entries must be in [1,%d], got %d", 1<<20, c.Entries)
	}
	if c.Degree < 1 || c.Degree > 16 {
		return fmt.Errorf("cache: prefetch degree must be in [1,16], got %d", c.Degree)
	}
	if c.MaxConf < 1 || c.MaxConf > 255 {
		return fmt.Errorf("cache: prefetch max_conf must be in [1,255], got %d", c.MaxConf)
	}
	if c.Threshold < 1 || c.Threshold > c.MaxConf {
		return fmt.Errorf("cache: prefetch threshold must be in [1,max_conf=%d], got %d", c.MaxConf, c.Threshold)
	}
	if c.Deltas < 2 || c.Deltas > MaxDeltaHist {
		return fmt.Errorf("cache: prefetch deltas must be in [2,%d], got %d", MaxDeltaHist, c.Deltas)
	}
	return nil
}

// L1Prefetcher is the pluggable L1-D prefetcher interface: Observe trains on
// a demand load and returns line addresses to prefetch-fill. The hierarchy
// owns one (stride by default); the mechanism registry swaps variants in.
type L1Prefetcher interface {
	// Observe may return a buffer the prefetcher reuses: the result is
	// valid only until the next call to Observe.
	Observe(pc, addr uint64) []uint64
	// IssuedCount returns the running count of issued prefetches, for the
	// run's counter snapshot.
	IssuedCount() uint64
}

// NonePrefetcher disables L1-D prefetching (the registry's "none" variant).
type NonePrefetcher struct{}

// Observe never prefetches.
func (NonePrefetcher) Observe(pc, addr uint64) []uint64 { return nil }

// IssuedCount is always zero.
func (NonePrefetcher) IssuedCount() uint64 { return 0 }

// nextPow2 rounds n up to the next power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// StridePrefetcher is the PC-based stride prefetcher attached to the L1-D
// (Table 2). It learns a per-PC stride over load addresses and, once
// confident, prefetches degree lines ahead.
type StridePrefetcher struct {
	table     []strideEntry
	mask      uint64
	degree    int
	threshold int
	maxConf   int
	Issued    uint64
	buf       []uint64 // backs Observe's result; capacity degree
}

type strideEntry struct {
	pc       uint64
	lastAddr uint64
	stride   int64
	conf     int
	valid    bool
}

// NewStridePrefetcher builds a prefetcher with the given table size and
// prefetch degree and the default confidence thresholds.
func NewStridePrefetcher(entries, degree int) *StridePrefetcher {
	cfg := DefaultPrefetchConfig()
	cfg.Entries = entries
	cfg.Degree = degree
	return NewStridePrefetcherWith(cfg)
}

// NewStridePrefetcherWith builds a stride prefetcher from cfg. The table
// size is rounded up to a power of two so indexing masks instead of taking
// an arbitrary modulo.
func NewStridePrefetcherWith(cfg PrefetchConfig) *StridePrefetcher {
	n := nextPow2(cfg.Entries)
	return &StridePrefetcher{
		table:     make([]strideEntry, n),
		mask:      uint64(n - 1),
		degree:    cfg.Degree,
		threshold: cfg.Threshold,
		maxConf:   cfg.MaxConf,
		buf:       make([]uint64, 0, cfg.Degree),
	}
}

// reset restores the state NewStridePrefetcherWith builds.
func (p *StridePrefetcher) reset() {
	clear(p.table)
	p.Issued = 0
}

// IssuedCount returns how many prefetches have been issued.
func (p *StridePrefetcher) IssuedCount() uint64 { return p.Issued }

// Observe trains on a demand load and returns the line addresses to
// prefetch (possibly none), valid until the next call.
func (p *StridePrefetcher) Observe(pc, addr uint64) []uint64 {
	e := &p.table[(pc>>2)&p.mask]
	if !e.valid || e.pc != pc {
		*e = strideEntry{pc: pc, lastAddr: addr, valid: true}
		return nil
	}
	stride := int64(addr) - int64(e.lastAddr)
	if stride == e.stride && stride != 0 {
		if e.conf < p.maxConf {
			e.conf++
		}
	} else {
		e.conf = 0
		e.stride = stride
	}
	e.lastAddr = addr
	if e.conf < p.threshold {
		return nil
	}
	out := p.buf[:0]
	next := int64(addr)
	for i := 0; i < p.degree; i++ {
		next += e.stride
		if next <= 0 {
			break
		}
		out = append(out, LineAddr(uint64(next)))
		p.Issued++
	}
	return out
}

// Streamer is the next-line stream prefetcher attached to the L2 (Table 2):
// it detects ascending line streams within 4 KiB regions and prefetches the
// following lines.
type Streamer struct {
	regions []streamRegion
	mask    uint64
	degree  int
	Issued  uint64
	buf     []uint64 // backs Observe's result; capacity degree
}

type streamRegion struct {
	region   uint64
	lastLine uint64
	hits     int
	valid    bool
}

// NewStreamer builds a streamer with the given region-tracker count (rounded
// up to a power of two) and prefetch degree.
func NewStreamer(trackers, degree int) *Streamer {
	n := nextPow2(trackers)
	return &Streamer{regions: make([]streamRegion, n), mask: uint64(n - 1), degree: degree,
		buf: make([]uint64, 0, degree)}
}

// reset restores the state NewStreamer builds.
func (s *Streamer) reset() {
	clear(s.regions)
	s.Issued = 0
}

// Observe trains on an L2 access and returns line addresses to prefetch,
// valid until the next call.
func (s *Streamer) Observe(lineAddr uint64) []uint64 {
	region := lineAddr / (4096 / 64)
	e := &s.regions[region&s.mask]
	if !e.valid || e.region != region {
		*e = streamRegion{region: region, lastLine: lineAddr, valid: true}
		return nil
	}
	if lineAddr == e.lastLine+1 {
		if e.hits < 4 {
			e.hits++
		}
	} else if lineAddr != e.lastLine {
		e.hits = 0
	}
	e.lastLine = lineAddr
	if e.hits < 2 {
		return nil
	}
	out := s.buf[:0]
	for i := 1; i <= s.degree; i++ {
		out = append(out, lineAddr+uint64(i))
		s.Issued++
	}
	return out
}
