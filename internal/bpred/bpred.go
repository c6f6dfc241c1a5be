// Package bpred implements the front-end branch prediction substrate: a
// TAGE-style tagged geometric-history direction predictor, a branch target
// buffer, and a return address stack. The baseline core (Table 2 of the
// paper) uses TAGE/ITTAGE with a 20-cycle misprediction penalty; this is a
// compact TAGE with the same structure (bimodal base + tagged components
// with geometrically-growing history lengths).
//
// The predictor is fully parameterized through Config: the mechanism
// registry (internal/sim) exposes the TAGE geometry and a plain-bimodal
// fallback variant as a sweepable axis, so predictor interplay studies run
// through the same New(Config) constructor the default core uses.
package bpred

import (
	"fmt"

	"constable/internal/isa"
)

// Default geometry (Table 2-like compact TAGE). DefaultConfig returns these.
const (
	numTables   = 4  // tagged components
	tableBits   = 10 // entries per tagged component = 1<<tableBits
	bimodalBits = 12 // bimodal base table entries = 1<<bimodalBits
	tagBits     = 11
	maxHistory  = 128
	rasDepth    = 32
	btbBits     = 11
)

// MaxTables caps the tagged-component count so Config stays a comparable
// fixed-size value (the service layer relies on == for canonicalization).
const MaxTables = 8

// MaxHistory is the longest global-history length a tagged component may use.
const MaxHistory = maxHistory

// history lengths for the default tagged components (geometric series).
var histLens = [numTables]int{4, 12, 34, 96}

// Config parameterizes a Predictor. The zero value is not valid; start from
// DefaultConfig (or BimodalConfig) and override fields. Config is a plain
// comparable value: two equal configs describe identical predictors.
type Config struct {
	// Tables is the number of tagged TAGE components. 0 selects the plain
	// bimodal variant: the base table predicts alone and no global history
	// is consulted (the history still shifts, keeping the update contract
	// identical across variants).
	Tables int `json:"tables"`
	// TableBits sizes each tagged component at 1<<TableBits entries.
	TableBits int `json:"table_bits"`
	// BimodalBits sizes the bimodal base table at 1<<BimodalBits entries.
	BimodalBits int `json:"bimodal_bits"`
	// TagBits is the partial-tag width stored in the tagged components.
	TagBits int `json:"tag_bits"`
	// HistLens[0:Tables] are the global-history lengths of the tagged
	// components, strictly increasing, each at most MaxHistory. Entries
	// past Tables are ignored and should be zero.
	HistLens [MaxTables]int `json:"hist_lens"`
	// RASDepth is the return-address-stack depth.
	RASDepth int `json:"ras_depth"`
	// BTBBits sizes the branch target buffer at 1<<BTBBits entries.
	BTBBits int `json:"btb_bits"`
}

// DefaultConfig returns the Table 2 baseline TAGE geometry.
func DefaultConfig() Config {
	cfg := Config{
		Tables:      numTables,
		TableBits:   tableBits,
		BimodalBits: bimodalBits,
		TagBits:     tagBits,
		RASDepth:    rasDepth,
		BTBBits:     btbBits,
	}
	copy(cfg.HistLens[:], histLens[:])
	return cfg
}

// BimodalConfig returns the plain-bimodal fallback variant: the default
// geometry with every tagged component removed.
func BimodalConfig() Config {
	cfg := DefaultConfig()
	cfg.Tables = 0
	cfg.HistLens = [MaxTables]int{}
	return cfg
}

// Validate reports whether the configuration describes a buildable
// predictor.
func (c Config) Validate() error {
	if c.Tables < 0 || c.Tables > MaxTables {
		return fmt.Errorf("bpred: tables must be in [0,%d], got %d", MaxTables, c.Tables)
	}
	if c.TableBits < 1 || c.TableBits > 20 {
		return fmt.Errorf("bpred: table_bits must be in [1,20], got %d", c.TableBits)
	}
	if c.BimodalBits < 1 || c.BimodalBits > 22 {
		return fmt.Errorf("bpred: bimodal_bits must be in [1,22], got %d", c.BimodalBits)
	}
	if c.TagBits < 2 || c.TagBits > 16 {
		return fmt.Errorf("bpred: tag_bits must be in [2,16], got %d", c.TagBits)
	}
	prev := 0
	for t := 0; t < c.Tables; t++ {
		n := c.HistLens[t]
		if n <= prev {
			return fmt.Errorf("bpred: hist_lens must be strictly increasing, got %v", c.HistLens[:c.Tables])
		}
		if n > MaxHistory {
			return fmt.Errorf("bpred: history length %d exceeds the %d-bit window", n, MaxHistory)
		}
		prev = n
	}
	if c.RASDepth < 1 || c.RASDepth > 1024 {
		return fmt.Errorf("bpred: ras_depth must be in [1,1024], got %d", c.RASDepth)
	}
	if c.BTBBits < 1 || c.BTBBits > 22 {
		return fmt.Errorf("bpred: btb_bits must be in [1,22], got %d", c.BTBBits)
	}
	return nil
}

type tageEntry struct {
	tag    uint32
	ctr    int8 // signed 3-bit counter: taken if >= 0
	useful uint8
}

// Predictor is the combined direction predictor + BTB + RAS. The zero value
// is not usable; call New.
type Predictor struct {
	cfg Config

	bimodal []int8
	tables  [][]tageEntry
	ghist   [maxHistory]bool
	gpos    int // circular position

	// foldIdx/foldTag are the folded histories foldedHist(HistLens[t], bits)
	// for bits = TableBits and TagBits, maintained incrementally on every
	// history shift so a lookup never walks the history buffer.
	foldIdx []uint32
	foldTag []uint32

	btb []btbEntry
	ras []uint64

	// statistics
	Lookups     uint64
	Mispredicts uint64
}

type btbEntry struct {
	pc     uint64
	target uint64
	valid  bool
}

// New returns a predictor built from cfg. It panics on an invalid
// configuration — callers that accept configs from outside validate with
// Config.Validate first (the service layer does this at canonicalization).
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Predictor{
		cfg:     cfg,
		bimodal: make([]int8, 1<<cfg.BimodalBits),
		tables:  make([][]tageEntry, cfg.Tables),
		foldIdx: make([]uint32, cfg.Tables),
		foldTag: make([]uint32, cfg.Tables),
		btb:     make([]btbEntry, 1<<cfg.BTBBits),
		ras:     make([]uint64, 0, cfg.RASDepth),
	}
	for i := range p.tables {
		p.tables[i] = make([]tageEntry, 1<<cfg.TableBits)
	}
	return p
}

// Reset returns p to the state New(p.Config()) builds, clearing the bimodal
// and tagged tables, the global and folded histories, the BTB, the RAS and
// the counters in place.
func (p *Predictor) Reset() {
	clear(p.bimodal)
	for _, t := range p.tables {
		clear(t)
	}
	clear(p.foldIdx)
	clear(p.foldTag)
	clear(p.btb)
	*p = Predictor{
		cfg:     p.cfg,
		bimodal: p.bimodal,
		tables:  p.tables,
		foldIdx: p.foldIdx,
		foldTag: p.foldTag,
		btb:     p.btb,
		ras:     p.ras[:0],
	}
}

// Config returns the configuration the predictor was built from.
func (p *Predictor) Config() Config { return p.cfg }

func (p *Predictor) histBit(i int) bool {
	return p.ghist[(p.gpos-1-i+2*maxHistory)%maxHistory]
}

// foldedHist compresses the most recent n history bits into bits output bits.
// It is the reference definition of the fold; lookups use the incrementally-
// maintained foldIdx/foldTag registers, which a regression test holds equal
// to this.
func (p *Predictor) foldedHist(n, bits int) uint32 {
	var h uint32
	for i := 0; i < n; i++ {
		if p.histBit(i) {
			h ^= 1 << (uint(i) % uint(bits))
		}
	}
	return h
}

// shiftFold advances one folded-history register for a new bit entering the
// window and the bit at position n-1 leaving it. Pushing a bit moves every
// history position i to i+1, which moves fold position (i mod b) to
// ((i+1) mod b) — a rotate-left within b bits; the new bit lands at position
// 0 and the leaving bit, rotated onto position (n mod b), is XORed away.
func shiftFold(f uint32, bits, n int, newBit, oldBit bool) uint32 {
	mask := uint32(1)<<bits - 1
	f = ((f << 1) | (f >> (bits - 1))) & mask
	if newBit {
		f ^= 1
	}
	if oldBit {
		f ^= 1 << (uint(n) % uint(bits))
	}
	return f
}

// shiftHistory appends the branch outcome to the global history and updates
// every folded register.
func (p *Predictor) shiftHistory(taken bool) {
	for t := 0; t < p.cfg.Tables; t++ {
		n := p.cfg.HistLens[t]
		old := p.histBit(n - 1)
		p.foldIdx[t] = shiftFold(p.foldIdx[t], p.cfg.TableBits, n, taken, old)
		p.foldTag[t] = shiftFold(p.foldTag[t], p.cfg.TagBits, n, taken, old)
	}
	p.ghist[p.gpos] = taken
	p.gpos = (p.gpos + 1) % maxHistory
}

func (p *Predictor) index(pc uint64, t int) uint32 {
	return (uint32(pc>>2) ^ p.foldIdx[t] ^ uint32(t)*0x9E37) & ((1 << p.cfg.TableBits) - 1)
}

func (p *Predictor) tag(pc uint64, t int) uint32 {
	return (uint32(pc>>2)*2654435761 ^ p.foldTag[t]) & ((1 << p.cfg.TagBits) - 1)
}

// PredictDirection predicts the direction of the conditional branch at pc.
func (p *Predictor) PredictDirection(pc uint64) bool {
	p.Lookups++
	taken, _, _ := p.predict(pc)
	return taken
}

// predict returns (prediction, provider table index or -1 for bimodal,
// provider entry index).
func (p *Predictor) predict(pc uint64) (bool, int, uint32) {
	for t := p.cfg.Tables - 1; t >= 0; t-- {
		idx := p.index(pc, t)
		e := &p.tables[t][idx]
		if e.tag == p.tag(pc, t) {
			return e.ctr >= 0, t, idx
		}
	}
	bi := (pc >> 2) & ((1 << p.cfg.BimodalBits) - 1)
	return p.bimodal[bi] >= 0, -1, uint32(bi)
}

// UpdateDirection trains the predictor with the resolved outcome and shifts
// the global history. It must be called exactly once per conditional branch,
// in fetch order.
func (p *Predictor) UpdateDirection(pc uint64, taken bool) {
	pred, provider, idx := p.predict(pc)
	if pred != taken {
		p.Mispredicts++
	}

	// Update the provider's counter.
	if provider >= 0 {
		e := &p.tables[provider][idx]
		e.ctr = satUpdate(e.ctr, taken, 3)
		if pred == taken && e.useful < 3 {
			e.useful++
		}
	} else {
		bi := idx
		p.bimodal[bi] = satUpdate(p.bimodal[bi], taken, 2)
	}

	// On a misprediction, allocate in a longer-history table.
	if pred != taken && provider < p.cfg.Tables-1 {
		start := provider + 1
		allocated := false
		for t := start; t < p.cfg.Tables; t++ {
			i := p.index(pc, t)
			e := &p.tables[t][i]
			if e.useful == 0 {
				e.tag = p.tag(pc, t)
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				allocated = true
				break
			}
		}
		if !allocated {
			for t := start; t < p.cfg.Tables; t++ {
				e := &p.tables[t][p.index(pc, t)]
				if e.useful > 0 {
					e.useful--
				}
			}
		}
	}

	// Shift history.
	p.shiftHistory(taken)
}

func satUpdate(c int8, taken bool, bits uint) int8 {
	max := int8(1<<(bits-1)) - 1
	min := -int8(1 << (bits - 1))
	if taken {
		if c < max {
			c++
		}
	} else if c > min {
		c--
	}
	return c
}

// PredictTarget returns the predicted target for a taken control-flow
// instruction at pc. Returns look-up success; unconditional direct branches
// hit after first encounter, returns use the RAS.
func (p *Predictor) PredictTarget(pc uint64, op isa.Op) (uint64, bool) {
	if op == isa.OpRet {
		if len(p.ras) == 0 {
			return 0, false
		}
		return p.ras[len(p.ras)-1], true
	}
	e := &p.btb[(pc>>2)&((1<<p.cfg.BTBBits)-1)]
	if e.valid && e.pc == pc {
		return e.target, true
	}
	return 0, false
}

// UpdateTarget installs the resolved target into the BTB and maintains the
// RAS for calls and returns. Call it in fetch order for every taken branch.
func (p *Predictor) UpdateTarget(pc uint64, op isa.Op, target uint64) {
	switch op {
	case isa.OpCall:
		if len(p.ras) == p.cfg.RASDepth {
			copy(p.ras, p.ras[1:])
			p.ras = p.ras[:p.cfg.RASDepth-1]
		}
		p.ras = append(p.ras, pc+isa.InstBytes)
	case isa.OpRet:
		if len(p.ras) > 0 {
			p.ras = p.ras[:len(p.ras)-1]
		}
		return // returns are predicted by the RAS, not the BTB
	}
	e := &p.btb[(pc>>2)&((1<<p.cfg.BTBBits)-1)]
	e.pc, e.target, e.valid = pc, target, true
}

// MispredictRate returns the fraction of direction lookups that mispredicted.
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Lookups)
}
