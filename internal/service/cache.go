package service

import (
	"container/list"
	"sync"

	"constable/internal/sim"
)

// resultCache is a thread-safe LRU cache of simulation results keyed by
// JobSpec hash. The cache owns its entries exclusively: Add stores a deep
// copy of the inserted result and get returns a deep copy of the stored one,
// so a caller mutating a result it submitted or received can never corrupt
// what later hits observe (the aliasing bug this replaces handed every hit
// the same shared pointer).
//
// Capacity semantics: a non-positive capacity disables the cache entirely
// (Add is a no-op, get always misses). Defaulting of the zero value to a
// real capacity is the constructor's job (Config.CacheSize: 0 → 1024), not
// the cache's.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	entries  map[string]*list.Element

	hits, misses uint64
}

type cacheEntry struct {
	key string
	res *sim.RunResult
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// get returns a deep copy of the cached result for key. A counted read
// (Submit's lookup) also counts the hit or miss and promotes the entry to
// most recently used; a quiet read does neither, so probes that are not
// submissions cannot distort the hit rate submitters see.
func (c *resultCache) get(key string, counted bool) (*sim.RunResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if counted && ok {
		c.hits++
		c.order.MoveToFront(el)
	} else if counted {
		c.misses++
	}
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).res.Clone(), true
}

// Add stores a deep copy of res under key, evicting the least recently used
// entry when the cache is full. A non-positive capacity disables caching.
func (c *resultCache) Add(key string, res *sim.RunResult) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res.Clone()
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res.Clone()})
}

// Len returns the number of cached results.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns cumulative hit and miss counts.
func (c *resultCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
