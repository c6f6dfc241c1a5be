package cache

// DRAM is a bank/row-buffer timing approximation of the paper's DDR4 main
// memory (Table 2: 4 channels × 2 ranks × 8 banks, 2 KB row buffer,
// tCAS=tRCD=tRP=22 ns at a 3.2 GHz core ⇒ ≈70 core cycles per timing
// component). A row-buffer hit pays tCAS; a row-buffer conflict pays
// tRP+tRCD+tCAS.
type DRAM struct {
	banks    []uint64 // open row per bank
	openRow  []bool
	rowShift uint

	tCASCycles int
	tRCDCycles int
	tRPCycles  int

	Accesses uint64
	RowHits  uint64
}

// DRAMConfig parameterizes the DRAM model.
type DRAMConfig struct {
	Banks      int // total banks across channels and ranks
	RowBytes   int // row-buffer size per bank
	TCASCycles int // column access latency in core cycles
	TRCDCycles int // row activate latency
	TRPCycles  int // precharge latency
}

// DefaultDRAMConfig matches Table 2 scaled to core cycles.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		Banks:      64, // 4 channels × 2 ranks × 8 banks
		RowBytes:   2048,
		TCASCycles: 70,
		TRCDCycles: 70,
		TRPCycles:  70,
	}
}

// NewDRAM builds the DRAM model.
func NewDRAM(cfg DRAMConfig) *DRAM {
	shift := uint(0)
	for 1<<shift < cfg.RowBytes {
		shift++
	}
	return &DRAM{
		banks:      make([]uint64, cfg.Banks),
		openRow:    make([]bool, cfg.Banks),
		rowShift:   shift,
		tCASCycles: cfg.TCASCycles,
		tRCDCycles: cfg.TRCDCycles,
		tRPCycles:  cfg.TRPCycles,
	}
}

// reset restores the state NewDRAM builds: every bank closed, counters zero.
func (d *DRAM) reset() {
	clear(d.banks)
	clear(d.openRow)
	d.Accesses, d.RowHits = 0, 0
}

// Access returns the access latency in core cycles for the byte address.
func (d *DRAM) Access(addr uint64) int {
	d.Accesses++
	row := addr >> d.rowShift
	bank := int(row) % len(d.banks)
	if d.openRow[bank] && d.banks[bank] == row {
		d.RowHits++
		return d.tCASCycles
	}
	lat := d.tRCDCycles + d.tCASCycles
	if d.openRow[bank] {
		lat += d.tRPCycles // close the old row first
	}
	d.banks[bank] = row
	d.openRow[bank] = true
	return lat
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (d *DRAM) RowHitRate() float64 {
	if d.Accesses == 0 {
		return 0
	}
	return float64(d.RowHits) / float64(d.Accesses)
}
