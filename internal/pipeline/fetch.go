package pipeline

import (
	"constable/internal/isa"
	"constable/internal/prog"
)

// fetch pulls up to FetchWidth instructions into the IDQs, round-robin over
// threads. Branches are predicted here; a detected misprediction switches
// the thread's front end onto a synthesized wrong path until the branch
// resolves in the execute stage.
func (c *Core) fetch() {
	budget := c.cfg.FetchWidth
	nThreads := len(c.threads)
	for slot := 0; slot < budget; slot++ {
		t := c.threads[slot%nThreads]
		if !c.fetchOne(t) && nThreads == 1 {
			// Every fetch-failure cause (stall, full IDQ, drained stream)
			// persists for the rest of the cycle, so with one thread the
			// remaining slots can't fetch either.
			break
		}
	}
}

// fetchOne fetches one uop into t's IDQ, reporting whether it did.
func (c *Core) fetchOne(t *threadState) bool {
	if c.cycle < t.fetchStall {
		return false
	}
	if t.idq.len() >= c.idqCap {
		return false
	}

	if t.wrongPath {
		u := c.makeWrongPathUop(t)
		t.idq.pushBack(u)
		c.Stats.FetchedUops++
		return true
	}

	d := c.nextDyn(t)
	if d == nil {
		return false
	}
	t.seqCounter++
	u := t.allocUop()
	u.seq = t.seqCounter
	u.thread = t.index
	u.dyn = *d
	t.idq.pushBack(u)
	c.Stats.FetchedUops++

	if u.dyn.Op.IsBranch() {
		c.predictBranch(t, u)
	}
	return true
}

// nextDyn returns the next committed-path instruction for t, or nil at the
// end of its stream, serving replayed instructions from the window before
// pulling new ones. The instruction stays in the window, and the pointer
// is valid until the window next changes.
func (c *Core) nextDyn(t *threadState) *isa.DynInst {
	idx := int(t.replayPos - t.windowBase)
	if idx >= t.window.len() {
		if t.streamDone {
			return nil
		}
		d, ok := t.stream.Next()
		if !ok {
			t.streamDone = true
			return nil
		}
		t.window.pushBack(d)
	}
	t.replayPos++
	return t.window.ptr(idx)
}

// predictBranch consults the direction predictor / BTB / RAS and, on a
// misprediction, flips the thread onto the wrong path. The predictor is
// trained immediately in fetch order.
func (c *Core) predictBranch(t *threadState, u *uop) {
	d := &u.dyn
	c.Stats.Branches++
	train := d.Seq >= t.trainedUpTo
	if train {
		t.trainedUpTo = d.Seq + 1
	} else {
		// Replayed branch after a flush: real front ends checkpoint and
		// restore the global history on recovery, so the branch sees the
		// same (by now trained) state as its first encounter. Predicting it
		// against the polluted post-flush history would cascade flushes
		// that no real machine suffers.
		return
	}

	mispredict := false
	switch d.Op {
	case isa.OpBranch:
		predTaken := c.bp.PredictDirection(d.PC)
		if predTaken != d.Taken {
			mispredict = true
		} else if d.Taken {
			if tgt, ok := c.bp.PredictTarget(d.PC, d.Op); !ok || tgt != d.Target {
				mispredict = true // taken with unknown/wrong target: redirect at resolve
			}
		}
		if train {
			c.bp.UpdateDirection(d.PC, d.Taken)
			if d.Taken {
				c.bp.UpdateTarget(d.PC, d.Op, d.Target)
			}
		}
	case isa.OpRet:
		if tgt, ok := c.bp.PredictTarget(d.PC, d.Op); !ok || tgt != d.Target {
			mispredict = true
		}
		if train {
			c.bp.UpdateTarget(d.PC, d.Op, d.Target)
		}
	case isa.OpJump, isa.OpCall:
		// Direct targets are decoded from the instruction; with branch
		// folding they never mispredict and never execute.
		if train {
			c.bp.UpdateTarget(d.PC, d.Op, d.Target)
		}
	}

	if mispredict {
		c.Stats.BranchMispredicts++
		t.wrongPath = true
		t.pendingRedirect = u
	}
}

// makeWrongPathUop synthesizes a deterministic wrong-path instruction:
// a plausible mix of ALU ops, loads and stores whose registers and addresses
// derive from a per-thread counter. Wrong-path uops consume pipeline
// resources and (optionally) update Constable's structures, but never retire.
func (c *Core) makeWrongPathUop(t *threadState) *uop {
	t.wpCounter++
	t.seqCounter++
	h := mix64(t.wpCounter ^ 0xABCD<<32)
	d := isa.DynInst{
		PC:        prog.CodeBase + 0x8000 + (h%1024)*isa.InstBytes,
		WrongPath: true,
	}
	switch h % 10 {
	case 0, 1, 2: // load
		d.Op = isa.OpLoad
		d.Dst = isa.Reg(h >> 8 % 16)
		d.Src1 = isa.Reg(h >> 16 % 16)
		d.Mode = isa.AddrRegRel
		d.Addr = prog.HeapBase + (h>>12%0x10000)*8
	case 3: // store
		d.Op = isa.OpStore
		d.Dst = isa.RegNone
		d.Src1 = isa.Reg(h >> 16 % 16)
		d.Src2 = isa.Reg(h >> 24 % 16)
		d.Mode = isa.AddrRegRel
		d.Addr = prog.HeapBase + (h>>12%0x10000)*8
	default: // ALU
		d.Op = isa.OpALU
		d.Fn = isa.ALUAdd
		d.Dst = isa.Reg(h >> 8 % 16)
		d.Src1 = isa.Reg(h >> 16 % 16)
		d.Src2 = isa.Reg(h >> 24 % 16)
	}
	u := t.allocUop()
	u.seq = t.seqCounter
	u.thread = t.index
	u.dyn = d
	u.wrongPath = true
	return u
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}
