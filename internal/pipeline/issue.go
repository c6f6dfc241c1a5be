package pipeline

import (
	"sort"

	"constable/internal/isa"
)

// issue dispatches up to IssueWidth ready uops in age order to free execution
// ports (5 ALU, 3 AGU+load, 2 STA, 2 STD per Table 2). Loads hold their
// AGU+load port for two cycles (address generation + L1-D read slot);
// AGU-only execution holds it for one.
//
// Scheduling is wakeup-driven instead of a scan: RS entries whose readiness
// cycle is known sit in readyWheel until it arrives, then move into readyQ
// (age-sorted) where they compete for the issue budget and ports; entries
// with unresolved producers cost nothing until a wake delivers them. The
// walk drops issued/squashed entries by compacting readyQ in place; a flush
// fired mid-walk (store-address disambiguation) only squashes uops younger
// than the one issuing, which the compaction drops as it reaches them.
func (c *Core) issue() {
	issued := 0
	var stableOnPort, nonStableOnPort, nonStableWaiting bool

	for _, t := range c.threads {
		// Mature ready entries into the age-ordered queue.
		for {
			ev, ok := t.readyWheel.popDue(c.cycle)
			if !ok {
				break
			}
			u := ev.u
			if u.seq != ev.seq || u.squashed || !u.inRS || u.issued {
				continue
			}
			t.insertReady(u)
		}

		w := 0
		for i := 0; i < len(t.readyQ); i++ {
			u := t.readyQ[i]
			if !u.inRS || u.issued || u.squashed {
				continue
			}
			if issued >= c.cfg.IssueWidth {
				t.readyQ[w] = u
				w++
				continue
			}
			if u.isLoad() && !c.loadMayIssue(t, u) {
				t.readyQ[w] = u
				w++
				continue
			}
			if !c.portAvailable(u) {
				if u.isLoad() {
					// A ready load that found no port: resource dependence.
					if c.hasStablePCs && !c.att.StablePCs[u.dyn.PC] {
						nonStableWaiting = true
					}
				}
				t.readyQ[w] = u
				w++
				continue
			}
			c.issueOne(t, u)
			issued++
			if u.isLoad() && c.hasStablePCs {
				if c.att.StablePCs[u.dyn.PC] {
					stableOnPort = true
				} else {
					nonStableOnPort = true
				}
			}
		}
		clearTail(t.readyQ, w)
		t.readyQ = t.readyQ[:w]
	}

	// Fig. 6 accounting: load-utilized cycles and their categorization.
	anyLoadPortBusy := false
	for _, busy := range c.loadPorts {
		if busy > c.cycle {
			anyLoadPortBusy = true
			break
		}
	}
	if anyLoadPortBusy {
		c.Stats.LoadUtilizedCycles++
		switch {
		case stableOnPort && nonStableWaiting:
			c.Stats.StableWhileNonStableWaits++
		case stableOnPort:
			c.Stats.StableNoWaiter++
		case nonStableOnPort || anyLoadPortBusy:
			c.Stats.NonStableOnly++
		}
	}
}

func clearTail(q []*uop, from int) {
	for i := from; i < len(q); i++ {
		q[i] = nil
	}
}

// insertReady places u into the age-sorted ready queue.
func (t *threadState) insertReady(u *uop) {
	q := t.readyQ
	if n := len(q); n == 0 || q[n-1].seq < u.seq {
		t.readyQ = append(q, u)
		return
	}
	i := sort.Search(len(q), func(i int) bool { return q[i].seq > u.seq })
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = u
	t.readyQ = q
}

// scheduleReady routes a uop whose readyAt just became known: future
// readiness matures in the wheel, already-reached readiness goes straight to
// the ready queue (it competes for issue from the next cycle on, exactly as
// a scan would have found it).
func (c *Core) scheduleReady(t *threadState, u *uop) {
	if u.readyAt > c.cycle {
		t.readyWheel.push(u.readyAt, u)
		return
	}
	t.insertReady(u)
}

// wake resolves u's availability for its registered consumers. Normal
// consumers decrement their unknown-producer count and are scheduled once
// every producer is resolved; a memory-renamed load waiting on store u gets
// its availability directly from the store's completion time and cascades to
// its own consumers. All readiness times produced here are strictly in the
// future (completeAt > cycle at issue), so scheduling never lands in the
// current cycle's already-run issue stage.
func (c *Core) wake(t *threadState, u *uop) {
	if u.availAt == farFuture {
		return // memory-renamed load still waiting on its store's issue
	}
	for _, wr := range u.waiters {
		v := wr.u
		if v.seq != wr.seq || v.squashed {
			continue
		}
		if v.mrnPred && v.mrnStore == u {
			v.availAt = u.completeAt
			c.wake(t, v)
			continue
		}
		v.unknownSrcs--
		if v.unknownSrcs != 0 {
			continue
		}
		ready := uint64(0)
		for _, p := range v.producers {
			if p == nil || p.squashed || p.availAt == farFuture {
				continue
			}
			if p.availAt > ready {
				ready = p.availAt
			}
		}
		v.readyAt = ready
		if v.inRS && !v.issued {
			c.scheduleReady(t, v)
		}
	}
	u.waiters = u.waiters[:0]
}

// loadMayIssue enforces memory-dependence prediction: a conflict-predicted
// load waits until every older store in its thread has generated its
// address.
func (c *Core) loadMayIssue(t *threadState, u *uop) bool {
	if !u.depPredicted {
		return true
	}
	for i := 0; i < t.sb.len(); i++ {
		s := t.sb.at(i)
		if s.squashed || s.seq >= u.seq {
			continue
		}
		if !s.issued {
			return false
		}
	}
	return true
}

// portAvailable finds and reserves the port class the uop needs; it returns
// false (reserving nothing) when all ports of the class are busy.
func (c *Core) portAvailable(u *uop) bool {
	switch {
	case u.isLoad():
		occ := uint64(loadPortOccupancy)
		if u.aguOnly {
			occ = aguOnlyPortOccupancy
		}
		return reservePort(c.loadPorts, c.cycle, occ)
	case u.isStore():
		// A store needs an STA and an STD slot in its issue cycle.
		staIdx := findPort(c.staPorts, c.cycle)
		stdIdx := findPort(c.stdPorts, c.cycle)
		if staIdx < 0 || stdIdx < 0 {
			return false
		}
		c.staPorts[staIdx] = c.cycle + 1
		c.stdPorts[stdIdx] = c.cycle + 1
		return true
	default:
		occ := uint64(1)
		if u.dyn.Op == isa.OpDiv {
			occ = divPortOccupancy
		}
		return reservePort(c.aluPorts, c.cycle, occ)
	}
}

func findPort(ports []uint64, now uint64) int {
	for i, busy := range ports {
		if busy <= now {
			return i
		}
	}
	return -1
}

func reservePort(ports []uint64, now, occupancy uint64) bool {
	i := findPort(ports, now)
	if i < 0 {
		return false
	}
	ports[i] = now + occupancy
	return true
}

// issueOne dispatches the uop, computes its completion time, and wakes
// consumers now that the result's arrival cycle is determined. Memory-renamed
// loads stay unresolved until their predicted store issues (the forwarded
// value arrives with the store's data, not the load's own execution).
func (c *Core) issueOne(t *threadState, u *uop) {
	u.issued = true
	u.issuedAt = c.cycle
	u.inRS = false
	c.rsCount--

	switch {
	case u.isLoad():
		c.executeLoad(t, u)
	case u.isStore():
		c.executeStore(t, u)
	default:
		c.Stats.ALUOps++
		u.completeAt = c.cycle + uint64(u.dyn.ExecLatency())
	}
	t.events.push(u.completeAt, u)
	if u.availAt == farFuture && !(u.mrnPred && u.mrnStore != nil) {
		u.availAt = u.completeAt
	}
	c.wake(t, u)
}

// executeLoad models address generation (1 cycle) plus the memory access.
func (c *Core) executeLoad(t *threadState, u *uop) {
	c.Stats.AGUOps++
	addr := u.dyn.Addr

	if u.aguOnly {
		// Ideal Stable LVP + data-fetch elimination: stop after address
		// generation — no load port data slot, no L1-D access.
		u.completeAt = c.cycle + 1
		return
	}

	// Store-to-load forwarding: an older in-flight store to the same word
	// whose address is known supplies the data at L1-hit-like latency.
	if fwd := c.forwardingStore(t, u, addr); fwd != nil {
		c.Stats.LoadExecs++
		u.completeAt = c.cycle + 1 + uint64(c.hier.L1D.Config().Latency)
		// Forwarding still reads the store buffer, not the L1-D; don't
		// count an L1-D access. Account a DTLB access only.
		return
	}

	if u.rfpPred && u.rfpAddr == addr {
		// The register-file prefetch already started this access at rename;
		// the data arrives relative to rename time. The stride prefetcher
		// still sees the demand stream.
		c.hier.TrainStride(u.dyn.PC, addr)
		arrival := u.renamedAt + 1 + uint64(u.rfpLat)
		if arrival < c.cycle+2 {
			arrival = c.cycle + 2 // verification still takes the pipeline
		}
		u.completeAt = arrival
		c.Stats.LoadExecs++
		return
	}

	memLat := c.hier.Load(u.dyn.PC, addr)
	c.Stats.LoadExecs++
	u.completeAt = c.cycle + 1 + uint64(memLat)
}

// forwardingStore returns the youngest older in-flight store to the same
// word address whose address is already generated, or nil.
func (c *Core) forwardingStore(t *threadState, u *uop, addr uint64) *uop {
	for i := t.sb.len() - 1; i >= 0; i-- {
		s := t.sb.at(i)
		if s.squashed || s.seq >= u.seq {
			continue
		}
		if s.issued && s.dyn.Addr == addr {
			return s
		}
	}
	return nil
}

// executeStore models store-address generation: the STA both arms memory
// disambiguation (catching younger already-done loads to the same address)
// and updates Constable's AMT ( 9 in Fig. 8).
func (c *Core) executeStore(t *threadState, u *uop) {
	c.Stats.AGUOps++
	c.Stats.StoreExecs++
	u.completeAt = c.cycle + 1
	addr := u.dyn.Addr

	if c.hasConstable && (!u.wrongPath || c.cfg.WrongPathUpdates) {
		c.att.Constable.OnStoreAddr(addr)
	}

	// Memory disambiguation: find the oldest younger load to the same word
	// that already obtained its value (executed or eliminated). Such a load
	// consumed stale data and must re-execute, flushing everything younger.
	// An eliminated load whose SLD value still equals the architectural
	// value was not actually made stale by this store (the silent-store
	// case): the forwarded data is correct, so no flush is needed.
	var victim *uop
	for i := 0; i < t.lb.len(); i++ {
		l := t.lb.at(i)
		if l.squashed || l.seq <= u.seq || l.wrongPath {
			continue
		}
		done := l.completed || l.eliminatedLoad()
		if !done {
			continue
		}
		if l.effAddr() != addr {
			continue
		}
		if l.eliminatedLoad() && l.elimValue == l.dyn.Value {
			continue
		}
		if victim == nil || l.seq < victim.seq {
			victim = l
		}
	}
	if victim != nil {
		c.Stats.OrderingViolations++
		if victim.eliminatedLoad() {
			c.Stats.EliminatedThatViolated++
			if c.hasConstable {
				c.att.Constable.OnViolation(victim.dyn.PC, victim.thread)
			}
		}
		c.memDepMark(victim.dyn.PC)
		c.flushFrom(victim, true)
	}
}
