package pipeline

import "constable/internal/isa"

// flushAfter squashes every uop of u's thread younger than u (exclusive).
func (c *Core) flushAfter(u *uop) {
	c.flushYounger(c.threads[u.thread], u.seq, false)
}

// flushFrom squashes younger uops and redirects fetch; inclusive squashes u
// itself as well (memory-ordering violations re-execute the load, value
// mispredictions re-execute only its dependents).
func (c *Core) flushFrom(u *uop, inclusive bool) {
	t := c.threads[u.thread]
	c.flushYounger(t, u.seq, inclusive)
	if inclusive {
		t.replayPos = u.dyn.Seq
	} else {
		t.replayPos = u.dyn.Seq + 1
	}
	// The flush also abandons any wrong path younger than u.
	if t.pendingRedirect != nil && t.pendingRedirect.seq >= u.seq {
		t.pendingRedirect = nil
		t.wrongPath = false
	}
	t.fetchStall = c.cycle + uint64(c.cfg.RedirectPenalty)
	c.Stats.Flushes++
}

// flushYounger removes all uops of t with seq beyond the boundary from every
// pipeline structure and rebuilds the rename table from the survivors.
//
// Every queue is age-ordered by seq, so the squashed uops form a contiguous
// suffix and the flush is a truncation from the back — survivors keep their
// positions, which lets the issue/complete scans flush mid-walk without
// invalidating already-visited entries.
func (c *Core) flushYounger(t *threadState, seq uint64, inclusive bool) {
	bound := seq
	if !inclusive {
		bound = seq + 1
	}

	buf := c.flushBuf[:0]
	for t.rob.len() > 0 {
		u := t.rob.back()
		if u.seq < bound {
			break
		}
		u.squashed = true
		if u.inRS {
			u.inRS = false
			c.rsCount--
		}
		if u.usesXPRF && c.hasConstable {
			c.att.Constable.ReleaseXPRF()
			u.usesXPRF = false
		}
		if u.dyn.Dst != isa.RegNone && u.elim != elimMove && u.elim != elimConstable && u.elim != elimIdeal {
			c.prfInUse--
		}
		t.rob.popBack()
		buf = append(buf, u)
	}
	for t.lb.len() > 0 && t.lb.back().squashed {
		t.lb.popBack()
	}
	for t.sb.len() > 0 && t.sb.back().squashed {
		t.sb.popBack()
	}
	// Completion events, ready-queue/wheel entries and waiter registrations
	// of squashed uops stay where they are; every consumer of those
	// structures validates squashed/seq lazily before acting.

	// The IDQ holds not-yet-renamed uops; all squashed ones leave too.
	for t.idq.len() > 0 {
		u := t.idq.back()
		if u.seq < bound {
			break
		}
		u.squashed = true
		t.idq.popBack()
		buf = append(buf, u)
	}

	c.rebuildLastWriter(t)

	// Park the squashed uops in limbo: surviving older uops may still hold
	// producers/mrnStore pointers whose squashed flag gets checked, so a
	// squashed uop's fields must stay intact until every uop fetched before
	// its release has left the pipeline.
	for _, u := range buf {
		t.releaseUop(u)
	}
	c.flushBuf = buf[:0]
}

// rebuildLastWriter restores the rename table to the youngest surviving
// writer of each architectural register (squashed writers fall back to older
// survivors or to the architectural state).
func (c *Core) rebuildLastWriter(t *threadState) {
	for r := range t.lastWriter {
		t.lastWriter[r] = nil
	}
	for i := 0; i < t.rob.len(); i++ {
		u := t.rob.at(i)
		if u.dyn.Dst != isa.RegNone {
			t.lastWriter[u.dyn.Dst] = u
		}
	}
}
