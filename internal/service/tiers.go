package service

import (
	"errors"
	"sync"

	"constable/internal/sim"
)

// resultTiers is the scheduler's one path through its result tiers, in
// order: the in-memory LRU, the persistent disk store (with
// Config.DataDir) and the cluster-wide share (with Config.Share). The
// local disk answers in microseconds and the share costs an HTTP round
// trip, so each tier is only asked what the ones before it missed.
//
// A lookup runs in one of two modes. A counted lookup is Submit's: it walks
// all three tiers, counts every tier's hits and misses, and promotes a store
// or share hit into the LRU so later duplicates touch neither the disk nor
// the network again. A quiet lookup serves everything that is not a
// submission — the dispatch-time recheck, GET /v1/results, finished-sweep
// replay and the PUT idempotency probe: it reads the local tiers only,
// changes no counter and promotes nothing. Every result a lookup returns
// is a copy the caller owns.
type resultTiers struct {
	cache *resultCache
	store *resultStore       // nil without Config.DataDir
	share *RemoteResultStore // nil without Config.Share

	// metrics and wg belong to the owning scheduler: share accounting lands
	// in its metrics, and Shutdown waits for write-backs through its wg.
	metrics *metrics
	wg      *sync.WaitGroup
}

// lookup returns a caller-owned copy of the result filed under hash, or
// nil when no tier consulted has it. counted selects Submit's mode.
//
// A share answer is accounted as a hit when verified, as a rejection when
// its envelope failed hash/schema verification (never used — the caller
// simulates locally, so a lying store cannot poison results), and as a miss
// otherwise, transport failures included.
func (t *resultTiers) lookup(hash string, counted bool) *sim.RunResult {
	if res, ok := t.cache.get(hash, counted); ok {
		return res
	}
	var res *sim.RunResult
	if t.store != nil {
		res, _ = t.store.load(hash, counted)
	}
	if res == nil && counted && t.share != nil {
		var err error
		res, err = t.share.Lookup(hash)
		switch {
		case res != nil:
			t.metrics.remoteHits.Add(1)
		case errors.Is(err, ErrResultRejected):
			t.metrics.remoteRejected.Add(1)
		default:
			t.metrics.remoteMisses.Add(1)
		}
	}
	if res != nil && counted {
		// The LRU keeps its own deep copy, so the caller's document and the
		// promoted one never alias.
		t.cache.Add(hash, res)
	}
	return res
}

// put files res under hash in the LRU and the store. Persistence is
// best-effort: a full disk degrades to LRU-only caching (the failure is
// counted in the store metrics). A fresh result — one this process just
// simulated — is also written back to the share, off the caller's path but
// tracked by the scheduler's WaitGroup so Shutdown drains it.
func (t *resultTiers) put(hash string, res *sim.RunResult, fresh bool) {
	t.cache.Add(hash, res)
	if t.store != nil {
		_ = t.store.Save(hash, res)
	}
	if fresh && t.share != nil {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			if err := t.share.WriteBack(hash, res); err == nil {
				t.metrics.remoteWritebacks.Add(1)
			}
		}()
	}
}
