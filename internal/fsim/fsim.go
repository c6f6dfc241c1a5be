// Package fsim is the functional simulator: it interprets a prog.Program,
// maintaining an architectural register file and a word-granular memory
// image, and emits the dynamic instruction stream that drives the timing
// model. Because every load value is produced by genuine interpretation
// (the last store to the word, or a deterministic initial value), the
// timing model's golden check at retirement can verify that Constable's
// eliminated loads return architecturally-correct values — the same
// methodology as the paper's functional-vs-microarchitectural match (§8.5).
package fsim

import (
	"fmt"

	"constable/internal/isa"
	"constable/internal/prog"
)

// CPU is the functional interpreter state. Create one with New and call
// Step repeatedly; each Step executes exactly one instruction and returns
// its dynamic record.
type CPU struct {
	program *prog.Program
	regs    [isa.NumRegsAPX]uint64
	mem     map[uint64]uint64
	// lastStore maps a word address to the Seq of the dynamic store that
	// last wrote it, for memory-renaming training and verification.
	lastStore map[uint64]uint64
	callStack []int
	pcIdx     int
	seq       uint64

	// counters
	dynLoads  uint64
	dynStores uint64
}

// New returns a CPU ready to execute p from its entry point.
func New(p *prog.Program) *CPU {
	c := &CPU{
		program:   p,
		mem:       make(map[uint64]uint64, len(p.InitMem)*2),
		lastStore: make(map[uint64]uint64),
		pcIdx:     p.Entry,
	}
	for r, v := range p.InitRegs {
		c.regs[r] = v
	}
	for a, v := range p.InitMem {
		c.mem[a] = v
	}
	return c
}

// Program returns the program being interpreted.
func (c *CPU) Program() *prog.Program { return c.program }

// Seq returns the number of instructions executed so far.
func (c *CPU) Seq() uint64 { return c.seq }

// DynLoads returns the number of dynamic loads executed so far.
func (c *CPU) DynLoads() uint64 { return c.dynLoads }

// DynStores returns the number of dynamic stores executed so far.
func (c *CPU) DynStores() uint64 { return c.dynStores }

// Reg returns the current architectural value of r.
func (c *CPU) Reg(r isa.Reg) uint64 { return c.regs[r] }

// InitialWord returns the deterministic value a memory word holds before
// any store writes it: a mix of its address. This keeps uninitialized loads
// stable and reproducible, mirroring a zero-filled or statically-initialized
// data segment.
func InitialWord(addr uint64) uint64 {
	return mix64(addr ^ 0x9E3779B97F4A7C15)
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// ReadMem returns the current architectural value of the word at addr.
func (c *CPU) ReadMem(addr uint64) uint64 {
	if v, ok := c.mem[addr]; ok {
		return v
	}
	return InitialWord(addr)
}

func alignWord(addr uint64) uint64 { return addr &^ (isa.WordBytes - 1) }

// Step interprets the next instruction and returns its dynamic record.
func (c *CPU) Step() isa.DynInst {
	if c.pcIdx < 0 || c.pcIdx >= len(c.program.Code) {
		panic(fmt.Sprintf("fsim: PC index %d out of range in %q (fell off the code image; workloads must loop)",
			c.pcIdx, c.program.Name))
	}
	in := &c.program.Code[c.pcIdx]
	d := isa.DynInst{
		Seq:  c.seq,
		PC:   prog.PCOf(c.pcIdx),
		Op:   in.Op,
		Fn:   in.Fn,
		Dst:  in.Dst,
		Src1: in.Src1,
		Src2: in.Src2,
		Mode: in.Mode,
	}
	c.seq++
	next := c.pcIdx + 1

	switch in.Op {
	case isa.OpNop:
		// nothing
	case isa.OpALU:
		d.Value = c.alu(in)
		c.regs[in.Dst] = d.Value
	case isa.OpMul:
		d.Value = c.regs[in.Src1] * c.regs[in.Src2]
		c.regs[in.Dst] = d.Value
	case isa.OpDiv:
		den := c.regs[in.Src2]
		if den == 0 {
			d.Value = ^uint64(0)
		} else {
			d.Value = c.regs[in.Src1] / den
		}
		c.regs[in.Dst] = d.Value
	case isa.OpFP:
		// A deterministic non-trivial mixing function standing in for FP math.
		d.Value = mix64(c.regs[in.Src1] + 3*c.regs[in.Src2])
		c.regs[in.Dst] = d.Value
	case isa.OpMovImm:
		d.Value = uint64(in.Imm)
		c.regs[in.Dst] = d.Value
	case isa.OpMov:
		d.Value = c.regs[in.Src1]
		c.regs[in.Dst] = d.Value
	case isa.OpLoad:
		d.Addr = alignWord(c.effAddr(in))
		d.Value = c.ReadMem(d.Addr)
		d.ProducerStore = c.lastStore[d.Addr]
		c.regs[in.Dst] = d.Value
		c.dynLoads++
	case isa.OpStore:
		d.Addr = alignWord(c.effAddr(in))
		d.Value = c.regs[in.Src2]
		d.Silent = c.ReadMem(d.Addr) == d.Value
		c.mem[d.Addr] = d.Value
		c.lastStore[d.Addr] = d.Seq
		c.dynStores++
	case isa.OpBranch:
		d.Taken = c.regs[in.Src1] != 0
		d.Target = prog.PCOf(int(in.Imm))
		if d.Taken {
			next = int(in.Imm)
		}
	case isa.OpJump:
		d.Taken = true
		d.Target = prog.PCOf(int(in.Imm))
		next = int(in.Imm)
	case isa.OpCall:
		d.Taken = true
		d.Target = prog.PCOf(int(in.Imm))
		c.callStack = append(c.callStack, c.pcIdx+1)
		next = int(in.Imm)
	case isa.OpRet:
		if len(c.callStack) == 0 {
			panic(fmt.Sprintf("fsim: return with empty call stack at pc %#x in %q", d.PC, c.program.Name))
		}
		next = c.callStack[len(c.callStack)-1]
		c.callStack = c.callStack[:len(c.callStack)-1]
		d.Taken = true
		d.Target = prog.PCOf(next)
	default:
		panic(fmt.Sprintf("fsim: unknown opcode %v at pc %#x", in.Op, d.PC))
	}

	c.pcIdx = next
	return d
}

func (c *CPU) alu(in *isa.Inst) uint64 {
	a := c.regs[in.Src1]
	var b uint64
	if in.Src2 != isa.RegNone {
		b = c.regs[in.Src2]
	} else {
		b = uint64(in.Imm)
	}
	switch in.Fn {
	case isa.ALUAdd:
		return a + b
	case isa.ALUSub:
		return a - b
	case isa.ALUXor:
		return a ^ b
	case isa.ALUAnd:
		return a & b
	case isa.ALUOr:
		return a | b
	case isa.ALUShl:
		return a << (b & 63)
	case isa.ALUCmpLT:
		if a < b {
			return 1
		}
		return 0
	case isa.ALUDec:
		return a - 1
	case isa.ALUInc:
		return a + 1
	default:
		panic(fmt.Sprintf("fsim: unknown ALU fn %d", in.Fn))
	}
}

// effAddr computes the effective address of a memory instruction.
func (c *CPU) effAddr(in *isa.Inst) uint64 {
	if in.Mode == isa.AddrPCRel {
		// RIP-relative: the effective address is a per-static-instruction
		// constant, encoded as an absolute address in Imm.
		return uint64(in.Imm)
	}
	return c.regs[in.Src1] + uint64(in.Imm)
}

// Stream adapts a CPU to the instruction-stream interface the timing model
// consumes, bounding the run at max instructions. Next returns false once
// the budget is exhausted.
type Stream struct {
	cpu *CPU
	max uint64
}

// NewStream returns a Stream that yields at most max dynamic instructions.
func NewStream(cpu *CPU, max uint64) *Stream { return &Stream{cpu: cpu, max: max} }

// Next returns the next dynamic instruction and true, or false at end.
func (s *Stream) Next() (isa.DynInst, bool) {
	if s.cpu.seq >= s.max {
		return isa.DynInst{}, false
	}
	return s.cpu.Step(), true
}

// Err reports why the stream ended before its budget. The functional model
// cannot fail mid-run, so it is always nil.
func (s *Stream) Err() error { return nil }

// CPU returns the underlying functional CPU (for golden-state inspection).
func (s *Stream) CPU() *CPU { return s.cpu }
