package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"constable/internal/sim"
)

// resultStore is the persistent content-addressed result store: one JSON
// file per finished RunResult, keyed by JobSpec hash, sharded into
// dir/<hash[:2]>/<hash>.json so no single directory grows unboundedly.
// Writes go through a temp file + atomic rename, so concurrent processes
// sharing a --data-dir never observe partial files; loads tolerate
// corruption (truncated writes, stray files, schema drift) by treating any
// undecodable or mismatched file as a miss.
type resultStore struct {
	dir string

	hits, misses, writes, errors, corrupt atomic.Uint64
}

// newResultStore opens (creating if needed) a store rooted at dir and
// sweeps temp files orphaned by writers that crashed mid-Save — they are
// invisible to load and would otherwise accumulate across restarts.
func newResultStore(dir string) (*resultStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: result store: %w", err)
	}
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() &&
			strings.HasPrefix(d.Name(), ".") && strings.Contains(d.Name(), ".tmp") {
			os.Remove(path)
		}
		return nil
	})
	return &resultStore{dir: dir}, nil
}

func (st *resultStore) path(hash string) string {
	shard := "xx"
	if len(hash) >= 2 {
		shard = hash[:2]
	}
	return filepath.Join(st.dir, shard, hash+".json")
}

// load returns the stored result for hash, or (nil, false) when absent or
// unreadable. The returned result is freshly decoded and owned by the
// caller. A decodable envelope whose recorded hash differs from the
// requested key (aliasing — e.g. a file copied across shards) counts as
// corrupt and is a miss. Only a counted read (Submit's lookup) counts the
// hit or miss; corruption is always counted — a bad file is worth knowing
// about no matter who tripped over it.
func (st *resultStore) load(hash string, counted bool) (*sim.RunResult, bool) {
	var res *sim.RunResult
	if b, err := os.ReadFile(st.path(hash)); err == nil {
		var env sim.ResultEnvelope
		if err = json.Unmarshal(b, &env); err == nil {
			res, err = env.Open(hash)
		}
		if err != nil {
			st.corrupt.Add(1)
		}
	}
	if counted && res != nil {
		st.hits.Add(1)
	} else if counted {
		st.misses.Add(1)
	}
	return res, res != nil
}

// Save persists res under hash. The write is atomic (temp file in the same
// shard directory, then rename), so a crashed or concurrent writer can only
// ever leave a complete file or none. The on-disk form is a
// sim.ResultEnvelope: the public RunResult document plus the typed views
// hidden from the public JSON schema, which the experiment drivers read.
func (st *resultStore) Save(hash string, res *sim.RunResult) error {
	env := sim.NewResultEnvelope(hash, res)
	b, err := json.Marshal(env)
	if err != nil {
		st.errors.Add(1)
		return fmt.Errorf("service: result store encode %s: %w", hash, err)
	}
	final := st.path(hash)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		st.errors.Add(1)
		return fmt.Errorf("service: result store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(final), "."+filepath.Base(final)+".tmp*")
	if err != nil {
		st.errors.Add(1)
		return fmt.Errorf("service: result store: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		st.errors.Add(1)
		return fmt.Errorf("service: result store write %s: %w", hash, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		st.errors.Add(1)
		return fmt.Errorf("service: result store close %s: %w", hash, err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		st.errors.Add(1)
		return fmt.Errorf("service: result store rename %s: %w", hash, err)
	}
	st.writes.Add(1)
	return nil
}

// Len walks the store and returns the number of persisted results.
func (st *resultStore) Len() int {
	n := 0
	filepath.WalkDir(st.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n
}

// storeStats is a point-in-time view of the store's counters.
type storeStats struct {
	hits, misses, writes, errors, corrupt uint64
}

func (st *resultStore) Stats() storeStats {
	return storeStats{
		hits:    st.hits.Load(),
		misses:  st.misses.Load(),
		writes:  st.writes.Load(),
		errors:  st.errors.Load(),
		corrupt: st.corrupt.Load(),
	}
}
