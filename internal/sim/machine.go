package sim

import (
	"sync"

	"constable/internal/cache"
	"constable/internal/pipeline"
)

// machine is what one Run needs besides its attachments: a core, its
// default memory hierarchy and the slice that hands the run's streams to the
// core. Building a core and a hierarchy allocates about 2.2 MB, while
// Core.Reset and Hierarchy.Reset restore used ones in place.
type machine struct {
	core    pipeline.Core
	hier    *cache.Hierarchy
	streams []pipeline.Stream
}

// machines holds the machines of finished runs for the next ones. A
// mutex-guarded free list, unlike a sync.Pool, hands a parked machine to
// whichever goroutine asks next: a sync.Pool Put lands in the current P's
// private slot, where a Get on another P cannot find it, so sequential runs
// whose goroutine migrated rebuilt a machine about once in thirty. The list
// grows to the peak number of concurrent runs and never shrinks.
var machines struct {
	sync.Mutex
	free []*machine
}

func takeMachine() *machine {
	machines.Lock()
	defer machines.Unlock()
	if n := len(machines.free); n > 0 {
		m := machines.free[n-1]
		machines.free = machines.free[:n-1]
		return m
	}
	return &machine{hier: cache.NewHierarchy(cache.DefaultHierarchyConfig())}
}

// park releases the core, resets the hierarchy and drops the run's streams,
// so a parked machine holds none of the finished run's state, and puts the
// machine on the free list.
func (m *machine) park() {
	m.core.Release()
	m.hier.Reset()
	clear(m.streams)
	m.streams = m.streams[:0]
	machines.Lock()
	machines.free = append(machines.free, m)
	machines.Unlock()
}
