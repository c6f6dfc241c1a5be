package bpred

import (
	"math/rand"
	"reflect"
	"testing"

	"constable/internal/isa"
)

func TestAlwaysTakenBranchLearns(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x400100)
	wrong := 0
	for i := 0; i < 200; i++ {
		if !p.PredictDirection(pc) {
			wrong++
		}
		p.UpdateDirection(pc, true)
	}
	if wrong > 5 {
		t.Errorf("always-taken branch mispredicted %d/200 times", wrong)
	}
}

func TestAlternatingBranchLearnsWithHistory(t *testing.T) {
	// TAGE's tagged history components must learn a strict T/NT alternation.
	p := New(DefaultConfig())
	pc := uint64(0x400200)
	wrongLate := 0
	for i := 0; i < 600; i++ {
		taken := i%2 == 0
		pred := p.PredictDirection(pc)
		if i >= 300 && pred != taken {
			wrongLate++
		}
		p.UpdateDirection(pc, taken)
	}
	if wrongLate > 30 {
		t.Errorf("alternating branch mispredicted %d/300 in steady state", wrongLate)
	}
}

func TestLoopExitPattern(t *testing.T) {
	// A loop taken 7 times then not-taken must be mostly predictable.
	p := New(DefaultConfig())
	pc := uint64(0x400300)
	wrongLate := 0
	total := 0
	for iter := 0; iter < 300; iter++ {
		for i := 0; i < 8; i++ {
			taken := i < 7
			pred := p.PredictDirection(pc)
			if iter >= 150 {
				total++
				if pred != taken {
					wrongLate++
				}
			}
			p.UpdateDirection(pc, taken)
		}
	}
	if rate := float64(wrongLate) / float64(total); rate > 0.2 {
		t.Errorf("loop-exit steady-state mispredict rate %.2f too high", rate)
	}
}

func TestRandomBranchIsHard(t *testing.T) {
	p := New(DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	pc := uint64(0x400400)
	wrong := 0
	const n = 2000
	for i := 0; i < n; i++ {
		taken := rng.Intn(2) == 0
		if p.PredictDirection(pc) != taken {
			wrong++
		}
		p.UpdateDirection(pc, taken)
	}
	rate := float64(wrong) / n
	if rate < 0.3 {
		t.Errorf("random branch mispredict rate %.2f suspiciously low", rate)
	}
}

func TestBTB(t *testing.T) {
	p := New(DefaultConfig())
	pc, target := uint64(0x400500), uint64(0x400800)
	if _, ok := p.PredictTarget(pc, isa.OpJump); ok {
		t.Error("cold BTB must miss")
	}
	p.UpdateTarget(pc, isa.OpJump, target)
	got, ok := p.PredictTarget(pc, isa.OpJump)
	if !ok || got != target {
		t.Errorf("BTB predict = %#x,%v", got, ok)
	}
}

func TestRAS(t *testing.T) {
	p := New(DefaultConfig())
	callPC := uint64(0x400600)
	p.UpdateTarget(callPC, isa.OpCall, 0x500000)
	got, ok := p.PredictTarget(0x500010, isa.OpRet)
	if !ok || got != callPC+isa.InstBytes {
		t.Errorf("RAS predict = %#x,%v, want %#x", got, ok, callPC+isa.InstBytes)
	}
	p.UpdateTarget(0x500010, isa.OpRet, got) // pop
	if _, ok := p.PredictTarget(0x500014, isa.OpRet); ok {
		t.Error("RAS must be empty after pop")
	}
}

func TestRASOverflowKeepsNewest(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < rasDepth+5; i++ {
		p.UpdateTarget(uint64(0x400000+i*8), isa.OpCall, 0x500000)
	}
	got, ok := p.PredictTarget(0x500000, isa.OpRet)
	want := uint64(0x400000+(rasDepth+4)*8) + isa.InstBytes
	if !ok || got != want {
		t.Errorf("RAS top = %#x, want %#x", got, want)
	}
}

func TestMispredictRate(t *testing.T) {
	p := New(DefaultConfig())
	if p.MispredictRate() != 0 {
		t.Error("empty predictor must report rate 0")
	}
	p.PredictDirection(0x400700)
	p.UpdateDirection(0x400700, true)
	if p.Lookups != 1 {
		t.Errorf("lookups = %d", p.Lookups)
	}
}

func TestDistinctBranchesDoNotInterfereMuch(t *testing.T) {
	p := New(DefaultConfig())
	wrong := 0
	const n = 400
	for i := 0; i < n; i++ {
		for b := 0; b < 8; b++ {
			pc := uint64(0x410000 + b*4)
			taken := b%2 == 0 // each branch has a fixed direction
			if i > 50 && p.PredictDirection(pc) != taken {
				wrong++
			} else if i <= 50 {
				p.PredictDirection(pc)
			}
			p.UpdateDirection(pc, taken)
		}
	}
	if wrong > 100 {
		t.Errorf("fixed-direction branches mispredicted %d times", wrong)
	}
}

func TestBimodalVariantPredicts(t *testing.T) {
	p := New(BimodalConfig())
	pc := uint64(0x400900)
	wrong := 0
	for i := 0; i < 200; i++ {
		if i > 10 && !p.PredictDirection(pc) {
			wrong++
		} else if i <= 10 {
			p.PredictDirection(pc)
		}
		p.UpdateDirection(pc, true)
	}
	if wrong > 0 {
		t.Errorf("bimodal mispredicted a fixed-direction branch %d times in steady state", wrong)
	}
}

func TestBimodalCannotLearnAlternation(t *testing.T) {
	// Without tagged history components a strict T/NT alternation is
	// unlearnable — that is exactly what makes the variant a useful
	// sweepable contrast to TAGE.
	p := New(BimodalConfig())
	pc := uint64(0x400A00)
	wrongLate := 0
	for i := 0; i < 600; i++ {
		taken := i%2 == 0
		pred := p.PredictDirection(pc)
		if i >= 300 && pred != taken {
			wrongLate++
		}
		p.UpdateDirection(pc, taken)
	}
	if wrongLate < 100 {
		t.Errorf("bimodal alternation mispredicts = %d/300, suspiciously low", wrongLate)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := BimodalConfig().Validate(); err != nil {
		t.Fatalf("bimodal config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Tables = MaxTables + 1
	if bad.Validate() == nil {
		t.Error("excess tables must be rejected")
	}
	bad = DefaultConfig()
	bad.HistLens[1] = bad.HistLens[0] // not strictly increasing
	if bad.Validate() == nil {
		t.Error("non-increasing history lengths must be rejected")
	}
	bad = DefaultConfig()
	bad.HistLens[3] = MaxHistory + 1
	if bad.Validate() == nil {
		t.Error("over-long history must be rejected")
	}
	bad = DefaultConfig()
	bad.TagBits = 0
	if bad.Validate() == nil {
		t.Error("zero tag bits must be rejected")
	}
}

func TestShortHistoryTageLearnsShortPatterns(t *testing.T) {
	// A 2-table TAGE with short histories still learns a period-2 pattern.
	cfg := DefaultConfig()
	cfg.Tables = 2
	cfg.HistLens = [MaxTables]int{2, 6}
	p := New(cfg)
	pc := uint64(0x400B00)
	wrongLate := 0
	for i := 0; i < 600; i++ {
		taken := i%2 == 0
		pred := p.PredictDirection(pc)
		if i >= 300 && pred != taken {
			wrongLate++
		}
		p.UpdateDirection(pc, taken)
	}
	if wrongLate > 30 {
		t.Errorf("2-table TAGE alternation mispredicts = %d/300", wrongLate)
	}
}

// TestResetMatchesNew trains every structure (direction tables, history,
// BTB, RAS, counters), then checks Reset leaves exactly what New builds.
func TestResetMatchesNew(t *testing.T) {
	for name, cfg := range map[string]Config{"tage": DefaultConfig(), "bimodal": BimodalConfig()} {
		t.Run(name, func(t *testing.T) {
			p := New(cfg)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 5000; i++ {
				pc := 0x400000 + uint64(rng.Intn(512))*isa.InstBytes
				taken := rng.Intn(3) != 0
				p.PredictDirection(pc)
				p.UpdateDirection(pc, taken)
				p.UpdateTarget(pc, []isa.Op{isa.OpBranch, isa.OpCall, isa.OpRet}[i%3], pc+64)
			}
			if reflect.DeepEqual(p, New(cfg)) {
				t.Fatal("training left the predictor in its fresh state")
			}
			p.Reset()
			if !reflect.DeepEqual(p, New(cfg)) {
				t.Error("Reset does not restore the state New builds")
			}
		})
	}
}
