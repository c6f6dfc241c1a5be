package sim

import (
	"sync"

	"constable/internal/cache"
	"constable/internal/isa"
	"constable/internal/pipeline"
	"constable/internal/workload"
)

// machine is what one Run needs besides its attachments: a core, its
// default memory hierarchy and one feeder per hardware thread. Building a
// core and a hierarchy allocates about 2.2 MB, while Core.Reset and
// Hierarchy.Reset restore used ones in place.
type machine struct {
	core    pipeline.Core
	hier    *cache.Hierarchy
	feeders []*feeder
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

// park stops the machine's feeders, releases the core and resets the
// hierarchy, so a parked machine holds none of the finished run's streams
// or attachments, and puts the machine on the free list.
func (m *machine) park() {
	defer func() {
		machines.Lock()
		machines.free = append(machines.free, m)
		machines.Unlock()
	}()
	m.core.Release()
	m.hier.Reset()
	clear(m.streams)
	m.halt()
}

// feed starts one feeder per stream and returns them as the core's
// streams.
func (m *machine) feed(srcs []workload.Stream) []pipeline.Stream {
	for len(m.feeders) < len(srcs) {
		m.feeders = append(m.feeders, newFeeder())
	}
	m.streams = m.streams[:0]
	for i, src := range srcs {
		m.feeders[i].start(src)
		m.streams = append(m.streams, m.feeders[i])
	}
	return m.streams
}

// halt stops and joins every running feeder.
func (m *machine) halt() {
	for _, f := range m.feeders {
		f.halt()
	}
}

// A feeder hands its thread's instructions to the core in batches of
// feedBatchLen, through feedBatches buffers: enough for the producer to run
// a few batches ahead of a core that stalls on a long miss, few enough that
// the buffers stay in the host's L2.
const (
	feedBatchLen = 256
	feedBatches  = 4
)

// feedBatch is one batch of a thread's instruction stream.
type feedBatch struct {
	n     int
	last  bool // the stream ended after these n instructions
	insts [feedBatchLen]isa.DynInst
}

// feeder runs one hardware thread's workload stream — the functional model
// or a trace reader — on a goroutine of its own, ahead of the core, which
// reads the same instructions in the same order through Next. The batches
// circulate between two channels: free holds the ones the core is done
// with, full the filled ones in stream order. Each channel has room for
// every batch, so no send blocks; only the producer's wait for a free batch
// and the core's wait for a full one do.
//
// The producer outruns the core, so it is nearly always parked waiting for
// a free batch, and each batch the core hands back wakes it, at the cost of
// a futex call on the core's CPU. The core therefore hands batches back two
// at a time, which halves the wake-ups and still leaves the producer two
// batches ahead.
type feeder struct {
	// The core's side, written on every instruction: the batch being
	// read, its length, the next index in it, and a read batch held back
	// to return with the next one. The padding keeps the fields the
	// producer reads off their cache line, which would otherwise bounce
	// between the two CPUs.
	cur, spare *feedBatch
	n, pos     int
	_          [32]byte

	free chan *feedBatch
	full chan *feedBatch
	stop chan struct{} // holds one token while halt waits
	done chan struct{} // the producer exited

	// Set by start, read by the producer until it exits.
	src     workload.Stream
	running bool
	// panicked is a panic the stream raised on the producer's goroutine;
	// the producer writes it before signalling done, halt re-raises it.
	panicked any

	batches [feedBatches]feedBatch
}

func newFeeder() *feeder {
	f := &feeder{
		free: make(chan *feedBatch, feedBatches),
		full: make(chan *feedBatch, feedBatches),
		stop: make(chan struct{}, 1),
		done: make(chan struct{}, 1),
	}
	for i := range f.batches {
		f.free <- &f.batches[i]
	}
	return f
}

// start begins producing src's instructions on a new goroutine; halt stops
// and joins it.
func (f *feeder) start(src workload.Stream) {
	f.src = src
	f.running = true
	go f.produce()
}

func (f *feeder) produce() {
	src := f.src
	var b *feedBatch
	defer func() {
		if r := recover(); r != nil {
			// End the core's stream here; halt re-raises the panic on
			// Run's goroutine.
			f.panicked = r
			b.n, b.last = 0, true
			f.full <- b
		}
		f.done <- struct{}{}
	}()
	for {
		select {
		case b = <-f.free:
		case <-f.stop:
			return
		}
		n := 0
		for n < feedBatchLen {
			d, ok := src.Next()
			if !ok {
				break
			}
			b.insts[n] = d
			n++
		}
		b.n, b.last = n, n < feedBatchLen
		f.full <- b
		if b.last {
			return
		}
	}
}

// Next returns the thread's next instruction, waiting for the producer
// when the core has caught up with it.
func (f *feeder) Next() (isa.DynInst, bool) {
	if f.pos == f.n && !f.take() {
		return isa.DynInst{}, false
	}
	d := f.cur.insts[f.pos]
	f.pos++
	return d, true
}

// take moves the core on to the next filled batch, handing the ones it has
// read back to the producer in pairs, and reports false at the end of the
// stream.
func (f *feeder) take() bool {
	if f.cur != nil {
		if f.cur.last {
			return false
		}
		if f.spare == nil {
			f.spare = f.cur
		} else {
			f.free <- f.spare
			f.free <- f.cur
			f.spare = nil
		}
	}
	f.cur, f.pos = <-f.full, 0
	f.n = f.cur.n
	return f.n > 0
}

// halt stops the producer, waits for it to exit and takes every batch
// back, so the stream's Err is safe to read and the next start begins
// with all batches free. It does nothing on a feeder that is not running,
// and re-raises a panic the stream raised.
func (f *feeder) halt() {
	if !f.running {
		return
	}
	f.running = false
	f.stop <- struct{}{}
	<-f.done
	select {
	case <-f.stop: // the producer had already finished
	default:
	}
	for len(f.full) > 0 {
		f.free <- <-f.full
	}
	for _, b := range [...]*feedBatch{f.cur, f.spare} {
		if b != nil {
			f.free <- b
		}
	}
	f.cur, f.spare, f.n, f.pos = nil, nil, 0, 0
	f.src = nil
	if p := f.panicked; p != nil {
		f.panicked = nil
		panic(p)
	}
}
