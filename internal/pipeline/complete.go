package pipeline

// complete handles the writeback stage: uops whose execution finishes this
// cycle become completed; loads train the value predictors and Constable's
// SLD, verify value speculation (EVES, MRN), and mispredicted branches
// resolve and redirect the front end.
//
// The stage drains the thread's completion-event wheel instead of scanning
// renamed-but-not-completed uops: every pending event has due >= the current
// cycle (due events are popped the cycle they mature), and the wheel pops
// same-cycle events in seq order — the age order a ROB scan would visit. Events whose
// uop was squashed (or recycled into a new instruction, detected by the seq
// snapshot) are dropped on pop; completeOne may flush mid-drain, which only
// ever squashes uops younger than the one completing.
func (c *Core) complete() {
	for _, t := range c.threads {
		for {
			ev, ok := t.events.popDue(c.cycle)
			if !ok {
				break
			}
			u := ev.u
			if u.seq != ev.seq || u.squashed || u.completed {
				continue
			}
			if u.renameComplete() {
				u.completed = true
				u.completeAt = u.renamedAt + 1
				continue
			}
			u.completed = true
			if u.availAt == farFuture && !(u.mrnPred && u.mrnStore != nil) {
				u.availAt = u.completeAt
			}
			c.completeOne(t, u)
			if c.err != nil {
				return
			}
		}
	}
}

func (c *Core) completeOne(t *threadState, u *uop) {
	if u.isLoad() && !u.wrongPath {
		c.completeLoad(t, u)
		return
	}

	// Wrong-path loads still train nothing architectural; stores and ALU
	// uops have no writeback-side work beyond branch resolution.
	if u.isBranch() && t.pendingRedirect == u {
		c.resolveMispredict(t, u)
	}
}

// completeLoad runs the writeback-side work of a committed-path load.
func (c *Core) completeLoad(t *threadState, u *uop) {
	d := &u.dyn

	// EVES verification and training.
	if c.hasEVES {
		if c.att.EVES.Train(d.PC, d.Value, u.valuePred, u.predVal) {
			// Value mispredict: dependents consumed a wrong value; flush
			// everything younger than the load and refetch.
			c.Stats.ValueMispredicts++
			c.flushFrom(u, false)
		}
	}

	// RFP verification and training.
	if c.hasRFP {
		c.att.RFP.Train(d.PC, d.Addr, u.rfpPred, u.rfpAddr)
	}

	// Memory-renaming verification: the predicted forwarding store must be
	// the architectural producer of the loaded value.
	if u.mrnPred {
		correct := u.mrnStore != nil && !u.mrnStore.squashed && !u.mrnStore.wrongPath &&
			d.ProducerStore != 0 && u.mrnStore.dyn.Seq == d.ProducerStore
		if !correct {
			c.Stats.MRNMispredicts++
			c.mrnTrain(d.PC, 0, false, true)
			c.flushFrom(u, false)
		} else {
			c.mrnTrain(d.PC, c.sbDistance(t, u), true, true)
		}
	} else if c.cfg.MemoryRenaming && d.ProducerStore != 0 {
		// Train the distance when the producer store is still in flight.
		if dist := c.sbDistance(t, u); dist > 0 {
			c.mrnTrain(d.PC, dist, true, false)
		}
	}

	// Constable SLD training and arming ( 4 / 5 / 6 in Fig. 8): only
	// non-eliminated loads execute and reach this point.
	if c.hasConstable {
		srcs := d.SrcRegs(c.srcsBuf[:0])
		c.att.Constable.OnLoadWriteback(d.PC, d.Addr, d.Value, srcs, u.likelyStable, u.thread)
		// CV-bit pinning: when a likely-stable load's memory request
		// returns, pin the own core's CV bit in the directory (§6.6).
		if u.likelyStable && c.hier.Directory != nil {
			c.hier.Directory.Pin(c.hier.CoreID, d.Addr/64)
		}
	}
}

// sbDistance returns the store-buffer distance (1 = youngest older store)
// of the load's architectural producer store, or 0 when it is not in flight.
func (c *Core) sbDistance(t *threadState, u *uop) int {
	if u.dyn.ProducerStore == 0 {
		return 0
	}
	for i := t.sb.len() - 1; i >= 0; i-- {
		s := t.sb.at(i)
		if s.squashed || s.seq >= u.seq {
			continue
		}
		if s.dyn.Seq == u.dyn.ProducerStore {
			return t.sb.len() - i
		}
	}
	return 0
}

// resolveMispredict ends wrong-path fetch: everything younger than the
// branch is squashed and the front end restarts at the correct target after
// the redirect penalty.
func (c *Core) resolveMispredict(t *threadState, u *uop) {
	t.pendingRedirect = nil
	t.wrongPath = false
	c.flushAfter(u)
	t.replayPos = u.dyn.Seq + 1
	t.fetchStall = c.cycle + uint64(c.cfg.RedirectPenalty)
	c.Stats.Flushes++
}
