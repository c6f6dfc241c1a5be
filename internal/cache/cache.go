// Package cache implements the memory-hierarchy substrate: set-associative
// caches with pluggable replacement, a stride prefetcher (L1-D) and a
// streamer (L2), a DRAM bank/row-buffer timing model, and a directory-based
// coherence layer with the core-valid-bit (CV-bit) pinning hook Constable
// relies on in multi-core systems (§6.6 of the paper). The configuration
// defaults follow Table 2.
package cache

import (
	"fmt"

	"constable/internal/isa"
)

// Config describes one cache level.
type Config struct {
	Name    string
	Sets    int
	Ways    int
	Latency int // hit latency contribution in core cycles
	// DeadBlockAware approximates the paper's dead-block-aware LLC
	// replacement: lines that were never re-referenced are preferred victims.
	DeadBlockAware bool
}

// SizeBytes returns the capacity of the configured cache.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * isa.CachelineBytes }

// line is one way of a set, packed into 16 bytes. A line address is a byte
// address / 64, so its top six bits are always zero: key holds the line
// address in the low bits and the valid, dirty and reused flags in the top
// three. The zero value is an invalid line.
type line struct {
	key     uint64
	lastUse uint64
}

const (
	lineValid    = 1 << 63
	lineDirty    = 1 << 62
	lineReused   = 1 << 61
	lineAddrMask = lineReused - 1
)

// Cache is one set-associative cache level.
type Cache struct {
	cfg Config
	// lines holds every way of every set in one flat array: way w of set s
	// is lines[s*Ways+w].
	lines []line
	clock uint64

	Hits   uint64
	Misses uint64
	// OnEvict, when non-nil, is called with the line address of every
	// evicted line (clean or dirty). Constable-AMT-I (Fig. 22) hooks the
	// L1-D eviction stream here.
	OnEvict func(lineAddr uint64)
}

// NewCache builds a cache from cfg. Sets must be a power of two.
func NewCache(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: sets %d must be a positive power of two", cfg.Name, cfg.Sets))
	}
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways %d must be positive", cfg.Name, cfg.Ways))
	}
	return &Cache{cfg: cfg, lines: make([]line, cfg.Sets*cfg.Ways)}
}

// reset restores the state NewCache builds: every line invalid, clock and
// counters zero, no eviction hook.
func (c *Cache) reset() {
	clear(c.lines)
	c.clock, c.Hits, c.Misses = 0, 0, 0
	c.OnEvict = nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr converts a byte address to a cacheline address.
func LineAddr(addr uint64) uint64 { return addr / isa.CachelineBytes }

// set returns the ways of the set lineAddr maps to.
func (c *Cache) set(lineAddr uint64) []line {
	i := (int(lineAddr) & (c.cfg.Sets - 1)) * c.cfg.Ways
	return c.lines[i : i+c.cfg.Ways]
}

// holds reports whether l is a valid copy of lineAddr.
func (l *line) holds(lineAddr uint64) bool {
	return l.key&^(lineDirty|lineReused) == lineAddr|lineValid
}

// Lookup probes the cache without changing replacement state.
func (c *Cache) Lookup(lineAddr uint64) bool {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].holds(lineAddr) {
			return true
		}
	}
	return false
}

// Access looks up lineAddr, fills on miss, and returns whether it hit.
// write marks the line dirty on a store.
func (c *Cache) Access(lineAddr uint64, write bool) bool {
	c.clock++
	set := c.set(lineAddr)
	for i := range set {
		l := &set[i]
		if l.holds(lineAddr) {
			c.Hits++
			l.lastUse = c.clock
			l.key |= lineReused
			if write {
				l.key |= lineDirty
			}
			return true
		}
	}
	c.Misses++
	c.fill(lineAddr, write)
	return false
}

// Fill inserts lineAddr without counting a demand access (prefetch path).
func (c *Cache) Fill(lineAddr uint64) {
	if c.Lookup(lineAddr) {
		return
	}
	c.clock++
	c.fill(lineAddr, false)
}

func (c *Cache) fill(lineAddr uint64, write bool) {
	set := c.set(lineAddr)
	victim := 0
	// Prefer invalid ways, then (for dead-block-aware) never-reused lines,
	// then LRU.
	best := ^uint64(0)
	foundDead := false
	for i := range set {
		l := &set[i]
		if l.key&lineValid == 0 {
			victim = i
			best = 0
			foundDead = true
			break
		}
		if c.cfg.DeadBlockAware && l.key&lineReused == 0 {
			if !foundDead || l.lastUse < best {
				victim, best, foundDead = i, l.lastUse, true
			}
			continue
		}
		if !foundDead && l.lastUse < best {
			victim, best = i, l.lastUse
		}
	}
	v := &set[victim]
	if v.key&lineValid != 0 {
		if c.OnEvict != nil {
			c.OnEvict(v.key & lineAddrMask)
		}
	}
	key := lineAddr | lineValid
	if write {
		key |= lineDirty
	}
	*v = line{key: key, lastUse: c.clock}
}

// Invalidate drops lineAddr if present (snoop handling). Reports whether the
// line was present.
func (c *Cache) Invalidate(lineAddr uint64) bool {
	set := c.set(lineAddr)
	for i := range set {
		l := &set[i]
		if l.holds(lineAddr) {
			l.key &^= lineValid
			return true
		}
	}
	return false
}

// MissRate returns misses / (hits+misses).
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}
