package pipeline

import (
	"fmt"

	"constable/internal/bpred"
	"constable/internal/cache"
	"constable/internal/isa"
	"constable/internal/vpred"
)

// threadState is the per-hardware-thread front-end and in-order state.
type threadState struct {
	index      int // position in Core.threads, stamped into uop.thread
	stream     Stream
	streamDone bool

	// window holds fetched-but-not-retired committed-path instructions;
	// window.front().Seq == windowBase. replayPos is the dynamic sequence
	// number of the next committed-path instruction to fetch (rewound on
	// flushes).
	window     ring[isa.DynInst]
	windowBase uint64
	replayPos  uint64

	wrongPath       bool
	wpCounter       uint64
	fetchStall      uint64 // no fetch until this cycle
	pendingRedirect *uop

	seqCounter uint64
	// trainedUpTo is the lowest committed-path dynamic sequence number the
	// branch predictor has NOT been trained on; replayed branches after a
	// flush predict without retraining, so history is not double-shifted.
	trainedUpTo uint64
	lastWriter  [isa.NumRegsAPX]*uop

	idq ring[*uop]
	rob ring[*uop]
	lb  ring[*uop]
	sb  ring[*uop]

	// Wakeup-driven issue scheduling. An RS entry is in exactly one place:
	// blocked (unknownSrcs > 0, reachable only through its producers'
	// waiters lists — zero per-cycle cost), maturing in readyWheel (readyAt
	// known but future, popped in (readyAt, seq) order), or issue-eligible
	// in readyQ (age-sorted by seq; retried every cycle until a port and
	// the issue budget admit it). Squashed/recycled entries are invalidated
	// lazily on pop/walk, like the completion events.
	readyQ     []*uop
	readyWheel eventWheel

	// events schedules completed-transitions: rename-complete uops enqueue
	// at rename (due the next cycle), executing uops at issue (due their
	// completeAt). complete() pops only the events due this cycle, so the
	// writeback stage costs O(due events) instead of a scan over everything
	// renamed-but-not-completed. Events for squashed uops are left in place
	// and invalidated lazily on pop via the seq snapshot.
	events eventWheel

	// uop pool. free holds immediately-reusable uops. limbo holds uops
	// that left the pipeline (retired or squashed) but may still be
	// referenced by younger in-flight uops: producers[] and mrnStore only
	// ever point young→old, so a parked uop is reclaimable once every uop
	// fetched before it was parked has itself left the pipeline.
	free  []*uop
	limbo ring[*uop]

	elar *vpred.ELAR

	retired uint64
}

// allocUop returns a zeroed uop, recycling from the pool when possible.
func (t *threadState) allocUop() *uop {
	if len(t.free) == 0 {
		t.reclaimLimbo()
	}
	if n := len(t.free); n > 0 {
		u := t.free[n-1]
		t.free = t.free[:n-1]
		u.reset()
		return u
	}
	return new(uop)
}

// releaseUop parks a uop that left the pipeline. Its fields must stay
// readable (a younger load's valueAvailAt consults its mrnStore's completion
// time even after the store retires), so it only becomes free once no
// in-flight uop can reference it; the seq stamp encodes that horizon.
func (t *threadState) releaseUop(u *uop) {
	u.releasedAtSeq = t.seqCounter
	t.limbo.pushBack(u)
}

// reclaimLimbo moves limbo entries past the reference horizon to the free
// list. Any uop referencing a parked one was fetched before it was parked
// (seq ≤ releasedAtSeq), so once the oldest in-flight seq passes the stamp
// no live reference remains. Stamps are nondecreasing in limbo order, so
// draining stops at the first entry still in the horizon.
func (t *threadState) reclaimLimbo() {
	oldest := t.seqCounter + 1
	if t.rob.len() > 0 {
		oldest = t.rob.front().seq
	} else if t.idq.len() > 0 {
		oldest = t.idq.front().seq
	}
	for t.limbo.len() > 0 && t.limbo.front().releasedAtSeq < oldest {
		t.free = append(t.free, t.limbo.popFront())
	}
}

// recycle empties t for reuse by Core.Reset: every uop still in the IDQ,
// ROB or limbo goes back on the free list, every other queue, wheel and
// rename-table slot drops its pointers, and the stream and ELAR tracker are
// let go. Only the buffers and the free list survive.
func (t *threadState) recycle() {
	for _, r := range []*ring[*uop]{&t.idq, &t.rob, &t.limbo} {
		for r.len() > 0 {
			t.free = append(t.free, r.popFront())
		}
	}
	t.lb.truncate(0)
	t.sb.truncate(0)
	t.window.truncate(0)
	t.readyWheel.reset()
	t.events.reset()
	*t = threadState{
		window:     t.window,
		idq:        t.idq,
		rob:        t.rob,
		lb:         t.lb,
		sb:         t.sb,
		readyQ:     withRoom(t.readyQ, 0),
		readyWheel: t.readyWheel,
		events:     t.events,
		free:       t.free,
		limbo:      t.limbo,
	}
}

// memDepEntry is a store-set-style conflict predictor entry.
type memDepEntry struct {
	pc    uint64
	conf  uint8
	valid bool
}

// mrnEntry predicts the store-buffer distance a load forwards from.
type mrnEntry struct {
	pc       uint64
	dist     int
	conf     uint8
	misses   uint8
	poisoned bool
	valid    bool
}

// Core is one simulated core (1 or 2 hardware threads).
type Core struct {
	cfg Config
	att Attachments

	hier *cache.Hierarchy
	bp   *bpred.Predictor
	// defaultBP is the core's own TAGE predictor, used when att.BPred is nil
	// and kept across Reset calls.
	defaultBP *bpred.Predictor

	// threads[len:cap] may hold the contexts of an earlier, wider run,
	// kept for Reset to reuse.
	threads []*threadState

	cycle    uint64
	rsCount  int
	prfInUse int

	// Attachment dispatch flags and per-thread structure capacities,
	// resolved once in Reset so the per-uop hot paths branch on plain
	// booleans/ints instead of re-deriving them (nil checks, Config()
	// struct copies, divisions) every cycle.
	hasConstable  bool
	sldReadPorts  int
	sldWritePorts int
	hasEVES       bool
	hasRFP        bool
	hasIdealElim  bool
	hasIdealLVP   bool
	hasStablePCs  bool
	idqCap        int
	robCap        int
	lbCap         int
	sbCap         int
	prfCap        int

	aluPorts  []uint64 // busy-until cycle per port
	loadPorts []uint64
	staPorts  []uint64
	stdPorts  []uint64

	memDep []memDepEntry
	mrn    []mrnEntry

	lastSLDWrites uint64

	// Per-mode retirement counters, indexed by isa.AddrMode. The map-typed
	// Stats views are materialized from these by finalizeStats at the end
	// of Run so the retire stage never hashes a mode string.
	elimByMode          [256]uint64
	retiredStableByMode [256]uint64
	elimStableByMode    [256]uint64

	// flushBuf and srcsBuf are reusable scratch buffers for flushYounger
	// and completeLoad.
	flushBuf []*uop
	srcsBuf  [2]isa.Reg

	Stats Stats

	err error
}

// loadPortOccupancy is how many cycles a full load execution holds its
// AGU+load port (address generation + L1-D read slot); AGU-only execution
// (Ideal Stable LVP + data-fetch elimination) holds it for one.
const (
	loadPortOccupancy    = 2
	aguOnlyPortOccupancy = 1
	divPortOccupancy     = 6
)

// NewCore builds a core over the given hierarchy and per-thread streams.
func NewCore(cfg Config, att Attachments, hier *cache.Hierarchy, streams ...Stream) *Core {
	c := new(Core)
	c.Reset(cfg, att, hier, streams...)
	return c
}

// Reset makes c the core NewCore(cfg, att, hier, streams...) would build,
// keeping the buffers it has already grown: every uop still in an IDQ, ROB or
// limbo list goes back on its thread's free list, the rings, ready queues and
// event wheels are emptied in place, the memory-dependence and MRN tables are
// cleared in place, and thread contexts are reused up to len(streams). With
// att.BPred nil the core's own default predictor is reset rather than
// rebuilt. hier must be fresh or reset (see cache.Hierarchy.Reset); Reset
// attaches the L1-D prefetcher, L1-D predictor and AMT-I eviction hook to it.
//
// Reset restarts every thread's seqCounter at 0, so the seq snapshots that
// lazily invalidate completion events, maturing ready entries and waiter
// registrations can no longer tell a stale entry of the previous run from a
// live one. Reset therefore empties events, readyWheel and readyQ outright
// (each wheel's slots and overflow heap, restarting it at cycle 0);
// uop.reset drops a recycled uop's stale waiters.
func (c *Core) Reset(cfg Config, att Attachments, hier *cache.Hierarchy, streams ...Stream) {
	if cfg.Threads != len(streams) {
		panic(fmt.Sprintf("pipeline: config has %d threads but %d streams supplied", cfg.Threads, len(streams)))
	}
	for _, t := range c.threads {
		t.recycle()
	}
	bp := att.BPred
	if bp == nil {
		if c.defaultBP == nil {
			c.defaultBP = bpred.New(bpred.DefaultConfig())
		} else {
			c.defaultBP.Reset()
		}
		bp = c.defaultBP
	}
	*c = Core{
		cfg:       cfg,
		att:       att,
		hier:      hier,
		bp:        bp,
		defaultBP: c.defaultBP,
		threads:   c.threads,
		aluPorts:  zeroed(c.aluPorts, cfg.NumALUPorts),
		loadPorts: zeroed(c.loadPorts, cfg.NumLoadPorts),
		staPorts:  zeroed(c.staPorts, cfg.NumStaPorts),
		stdPorts:  zeroed(c.stdPorts, cfg.NumStdPorts),
		memDep:    zeroed(c.memDep, 4096),
		mrn:       zeroed(c.mrn, 4096),
		flushBuf:  c.flushBuf[:0],
	}
	c.Stats.EliminatedByMode = make(map[string]uint64)
	c.Stats.RetiredStableByMode = make(map[string]uint64)
	c.Stats.EliminatedStableByMode = make(map[string]uint64)

	c.hasConstable = att.Constable != nil
	if c.hasConstable {
		ccfg := att.Constable.Config()
		c.sldReadPorts = ccfg.SLDReadPorts
		c.sldWritePorts = ccfg.SLDWritePorts
	}
	if att.L1Prefetch != nil {
		hier.SetL1Prefetcher(att.L1Prefetch)
	}
	if att.L1DPred != nil {
		hier.SetL1DPredictor(att.L1DPred)
	}
	c.hasEVES = att.EVES != nil
	c.hasRFP = att.RFP != nil
	c.hasIdealElim = att.IdealElimPCs != nil
	c.hasIdealLVP = att.IdealLVPPCs != nil
	c.hasStablePCs = att.StablePCs != nil
	c.idqCap = cfg.IDQSize / len(streams)
	c.robCap = cfg.ROBSize / len(streams)
	c.lbCap = cfg.LBSize / len(streams)
	c.sbCap = cfg.SBSize / len(streams)
	c.prfCap = cfg.IntPRF - isa.NumRegsAPX

	if n := len(streams); cap(c.threads) < n {
		c.threads = append(c.threads[:cap(c.threads)], make([]*threadState, n-cap(c.threads))...)
	}
	c.threads = c.threads[:len(streams)]
	for i, s := range streams {
		if c.threads[i] == nil {
			c.threads[i] = new(threadState)
		}
		t := c.threads[i]
		t.index = i
		t.stream = s
		t.window.reset(256)
		t.idq.reset(c.idqCap)
		t.rob.reset(c.robCap)
		t.lb.reset(c.lbCap)
		t.sb.reset(c.sbCap)
		t.limbo.reset(c.robCap)
		t.readyQ = withRoom(t.readyQ, cfg.RSSize)
		t.readyWheel.reset()
		t.events.reset()
		if att.ELAR != nil {
			// ELAR state is per hardware context: thread 0 uses the caller's
			// instance (so its counters are observable), extra threads get
			// their own trackers.
			if i == 0 {
				t.elar = att.ELAR
			} else {
				t.elar = vpred.NewELAR()
			}
		}
	}
	// Constable-AMT-I: hook the L1-D eviction stream.
	if att.Constable != nil && att.Constable.Config().InvalidateOnL1Evict {
		prev := hier.L1D.OnEvict
		hier.L1D.OnEvict = func(lineAddr uint64) {
			att.Constable.OnL1Evict(lineAddr)
			if prev != nil {
				prev(lineAddr)
			}
		}
	}
}

// Release drops the core's references to what NewCore or Reset was given —
// the streams, the attachments, the extra ELAR trackers, a passed-in branch
// predictor and the hierarchy — and returns every in-flight uop to its
// thread's free list, so a parked core pins only its own buffers. Stats stay
// readable; the core runs again only after a Reset.
func (c *Core) Release() {
	for _, t := range c.threads {
		t.recycle()
	}
	c.att = Attachments{}
	c.hier = nil
	c.bp = nil
}

// zeroed returns s resized to n zero elements, reusing its array when it is
// large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// withRoom returns s emptied, with its elements zeroed and room for n.
func withRoom[T any](s []T, n int) []T {
	clear(s)
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Hierarchy returns the core's memory hierarchy.
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Branch returns the branch predictor (for inspection).
func (c *Core) Branch() *bpred.Predictor { return c.bp }

// Run simulates until every thread's stream is exhausted and drained, or
// until maxCycles total cycles have elapsed. Repeated calls resume where the
// previous one stopped (maxCycles is a cumulative cycle number), so a driver
// can interleave cores cycle-region by cycle-region. It returns an error if
// the golden check ever fails — which would mean Constable returned an
// architecturally-wrong load value.
func (c *Core) Run(maxCycles uint64) error {
	for c.cycle < maxCycles {
		if !c.Step() {
			break
		}
	}
	c.finalizeStats()
	return c.err
}

// Step advances the core by one cycle. It returns false once every stream is
// exhausted and drained, or on a golden-check failure (see Run). Callers
// driving the core by Step should call finalizeStats (via Run, or a final
// zero-budget Run call) before reading the map-typed Stats views.
func (c *Core) Step() bool {
	c.cycle++
	c.retire()
	if c.err != nil {
		return false
	}
	c.complete()
	c.issue()
	c.rename()
	c.fetch()
	c.Stats.Cycles = c.cycle
	c.accountSLDUpdates()
	return !c.done()
}

// finalizeStats materializes the map-typed per-mode Stats views from the
// array counters the retire stage increments. Only modes with nonzero counts
// get keys — counter snapshots depend on the exact key set.
func (c *Core) finalizeStats() {
	c.Stats.EliminatedByMode = modeCounts(&c.elimByMode)
	c.Stats.RetiredStableByMode = modeCounts(&c.retiredStableByMode)
	c.Stats.EliminatedStableByMode = modeCounts(&c.elimStableByMode)
}

func modeCounts(a *[256]uint64) map[string]uint64 {
	m := make(map[string]uint64, 4)
	for i, v := range a {
		if v != 0 {
			m[isa.AddrMode(i).String()] = v
		}
	}
	return m
}

func (c *Core) done() bool {
	for _, t := range c.threads {
		if !t.streamDone || t.rob.len() > 0 || t.idq.len() > 0 {
			return false
		}
		// A flush may have rewound the replay cursor into the window; those
		// instructions still need to be refetched and retired.
		if t.replayPos < t.windowBase+uint64(t.window.len()) {
			return false
		}
	}
	return true
}

// accountSLDUpdates tracks SLD write-port pressure per cycle (Fig. 9a).
func (c *Core) accountSLDUpdates() {
	if !c.hasConstable {
		return
	}
	w := c.att.Constable.Stats.SLDWriteOps
	delta := w - c.lastSLDWrites
	c.lastSLDWrites = w
	if delta > 0 {
		c.Stats.SLDUpdateCycles++
	}
	c.Stats.SLDUpdates += delta
	if delta <= 2 {
		c.Stats.SLDUpdatesLE2Cycles++
	}
}

// InjectSnoop delivers an invalidating snoop to the core: Constable drops
// the AMT entry, the private caches invalidate the line, and — mirroring the
// existing memory-disambiguation logic — any in-flight load whose address
// falls in the line is flushed and re-executed (§6.6).
func (c *Core) InjectSnoop(lineAddr uint64) {
	if c.hasConstable {
		c.att.Constable.OnSnoop(lineAddr)
	}
	c.hier.InvalidateLine(lineAddr)
	for _, t := range c.threads {
		for i := 0; i < t.lb.len(); i++ {
			u := t.lb.at(i)
			if u.squashed || !(u.completed || u.eliminatedLoad()) {
				continue
			}
			if cache.LineAddr(u.effAddr()) == lineAddr {
				c.Stats.OrderingViolations++
				c.flushFrom(u, true)
				break
			}
		}
	}
}
