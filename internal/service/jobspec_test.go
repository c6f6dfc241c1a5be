package service

import (
	"encoding/json"
	"os"
	"testing"

	"constable/internal/bpred"
	"constable/internal/cache"
	"constable/internal/constable"
	"constable/internal/pipeline"
	"constable/internal/sim"
	"constable/internal/workload"
)

func testWorkload(t *testing.T) string {
	t.Helper()
	return workload.SmallSuite()[0].Name
}

func TestHashDeterministic(t *testing.T) {
	name := testWorkload(t)
	a := JobSpec{Workload: name, Mechanism: "constable", Instructions: 50_000, Threads: 1}
	b := JobSpec{Workload: name, Mechanism: "constable", Instructions: 50_000, Threads: 1}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("identical specs hash differently: %s vs %s", ha, hb)
	}
}

func TestHashBudgetSensitive(t *testing.T) {
	name := testWorkload(t)
	a := JobSpec{Workload: name, Mechanism: "constable", Instructions: 50_000}
	b := JobSpec{Workload: name, Mechanism: "constable", Instructions: 60_000}
	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha == hb {
		t.Error("specs with different instruction budgets hash equal")
	}
}

func TestHashNormalizesDefaults(t *testing.T) {
	name := testWorkload(t)
	// Explicit defaults and implicit defaults must be the same simulation.
	implicit := JobSpec{Workload: name}
	explicit := JobSpec{Workload: name, Mechanism: "baseline", Instructions: 100_000, Threads: 1}
	hi, err := implicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	he, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hi != he {
		t.Errorf("defaulted spec hashes differently from explicit defaults: %s vs %s", hi, he)
	}
}

func TestHashNamedVersusExplicitMechanism(t *testing.T) {
	name := testWorkload(t)
	named := JobSpec{Workload: name, Mechanism: "eves+constable", Instructions: 10_000}
	explicit := JobSpec{Workload: name, Mech: MechSpec{EVES: true, Constable: true}, Instructions: 10_000}
	hn, _ := named.Hash()
	he, _ := explicit.Hash()
	if hn != he {
		t.Error("named mechanism and equivalent explicit MechSpec hash differently")
	}
}

func TestHashStablePCsOrderInsensitive(t *testing.T) {
	name := testWorkload(t)
	a := JobSpec{Workload: name, Instructions: 10_000, StablePCs: []uint64{3, 1, 2}}
	b := JobSpec{Workload: name, Instructions: 10_000, StablePCs: []uint64{1, 2, 3}}
	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha != hb {
		t.Error("StablePCs ordering changed the hash")
	}
}

func TestCanonicalRejectsBadSpecs(t *testing.T) {
	name := testWorkload(t)
	for _, spec := range []JobSpec{
		{Workload: "no-such-workload"},
		{Workload: name, Mechanism: "warp-drive"},
		{Workload: name, Threads: 3},
		// A trace-reference name is an unknown workload.
		{Workload: staleTraceName},
	} {
		if _, err := spec.Canonical(); err == nil {
			t.Errorf("Canonical(%+v) succeeded, want error", spec)
		}
	}
}

func TestSpecFromOptionsRoundTrip(t *testing.T) {
	spec := workload.SmallSuite()[0]
	core := pipeline.DefaultConfig()
	core.NumLoadPorts = 6
	opts := sim.Options{
		Workload:     spec,
		Instructions: 12_000,
		Threads:      2,
		APX:          true,
		Mech:         sim.Mechanism{Constable: true},
		Core:         &core,
		StablePCs:    map[uint64]bool{7: true, 3: true},
	}
	js := SpecFromOptions(opts)
	back, err := js.ToOptions()
	if err != nil {
		t.Fatal(err)
	}
	if back.Workload.Name != spec.Name || back.Instructions != 12_000 ||
		back.Threads != 2 || !back.APX || !back.Mech.Constable {
		t.Errorf("round trip lost fields: %+v", back)
	}
	if back.Core == nil || back.Core.NumLoadPorts != 6 {
		t.Errorf("round trip lost core override: %+v", back.Core)
	}
	if len(back.StablePCs) != 2 || !back.StablePCs[3] || !back.StablePCs[7] {
		t.Errorf("round trip lost StablePCs: %+v", back.StablePCs)
	}
}

// TestPresetHashesPinned pins every preset's job content hash against
// testdata/preset_hashes.json. These hashes are content addresses in
// persistent stores and across the wire: changing one silently orphans every
// previously stored result, so any diff here must be a deliberate,
// documented schema break — never a side effect of adding fields.
func TestPresetHashesPinned(t *testing.T) {
	blob, err := os.ReadFile("testdata/preset_hashes.json")
	if err != nil {
		t.Fatal(err)
	}
	var fixture struct {
		Workload     string            `json:"workload"`
		Instructions uint64            `json:"instructions"`
		Hashes       map[string]string `json:"hashes"`
	}
	if err := json.Unmarshal(blob, &fixture); err != nil {
		t.Fatal(err)
	}
	presets := sim.MechanismNames()
	if len(fixture.Hashes) != len(presets) {
		t.Errorf("fixture pins %d presets, registry has %d — update testdata/preset_hashes.json",
			len(fixture.Hashes), len(presets))
	}
	for _, name := range presets {
		want, ok := fixture.Hashes[name]
		if !ok {
			t.Errorf("preset %q not pinned in fixture", name)
			continue
		}
		got, err := JobSpec{Workload: fixture.Workload, Mechanism: name,
			Instructions: fixture.Instructions}.Hash()
		if err != nil {
			t.Fatalf("hash %q: %v", name, err)
		}
		if got != want {
			t.Errorf("preset %q hash changed: %s, pinned %s", name, got, want)
		}
	}
}

// TestHashNormalizesDefaultConfigs is the regression test for the
// default-equal-override bug: a MechSpec spelling out a component's default
// configuration runs the exact simulation the bare preset runs, so it must
// hash to the same content address.
func TestHashNormalizesDefaultConfigs(t *testing.T) {
	name := testWorkload(t)
	preset := JobSpec{Workload: name, Mechanism: "constable", Instructions: 10_000}
	hp, err := preset.Hash()
	if err != nil {
		t.Fatal(err)
	}

	ccfg := constable.DefaultConfig()
	spelled := JobSpec{Workload: name, Mech: MechSpec{Constable: true, Config: &ccfg}, Instructions: 10_000}
	hs, err := spelled.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hs != hp {
		t.Errorf("default-equal constable config hashes differently: %s vs %s", hs, hp)
	}

	// Same normalization for every axis override.
	bcfg := bpred.DefaultConfig()
	pcfg := cache.DefaultPrefetchConfig()
	for _, spec := range []JobSpec{
		{Workload: name, Mech: MechSpec{Constable: true, BPredConfig: &bcfg}, Instructions: 10_000},
		{Workload: name, Mech: MechSpec{Constable: true, PrefetchConfig: &pcfg}, Instructions: 10_000},
		{Workload: name, Mech: MechSpec{Constable: true, BPred: "tage", Prefetch: "stride", L1DPred: "off"}, Instructions: 10_000},
	} {
		h, err := spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != hp {
			t.Errorf("default-equal spec %+v hashes differently: %s vs %s", spec.Mech, h, hp)
		}
	}

	// A bimodal-variant override equal to the bimodal base also elides.
	bim := bpred.BimodalConfig()
	qa := JobSpec{Workload: name, Mechanism: "constable,bpred=bimodal", Instructions: 10_000}
	qb := JobSpec{Workload: name, Mech: MechSpec{Constable: true, BPred: "bimodal", BPredConfig: &bim}, Instructions: 10_000}
	ha, _ := qa.Hash()
	hb, _ := qb.Hash()
	if ha != hb {
		t.Error("bimodal-base override must hash like the bare variant")
	}
	if ha == hp {
		t.Error("bpred=bimodal must hash differently from the default predictor")
	}

	// A default L1DPredConfig whose Global flag disagrees with the variant is
	// still default-equal: the variant decides Global.
	lc := cache.DefaultL1DPredConfig()
	ga := JobSpec{Workload: name, Mechanism: "constable,l1dpred=global", Instructions: 10_000}
	gb := JobSpec{Workload: name, Mech: MechSpec{Constable: true, L1DPred: "global", L1DPredConfig: &lc}, Instructions: 10_000}
	hga, _ := ga.Hash()
	hgb, _ := gb.Hash()
	if hga != hgb {
		t.Error("l1dpred Global flag must canonicalize to the variant's value")
	}
}

func TestCanonicalRejectsBadAxisSpecs(t *testing.T) {
	name := testWorkload(t)
	badPf := cache.PrefetchConfig{}
	okPf := cache.DefaultPrefetchConfig()
	okLc := cache.DefaultL1DPredConfig()
	for _, spec := range []JobSpec{
		{Workload: name, Mech: MechSpec{BPred: "gshare"}},
		{Workload: name, Mech: MechSpec{Prefetch: "nextline"}},
		{Workload: name, Mech: MechSpec{L1DPred: "perceptron"}},
		{Workload: name, Mechanism: "constable,prefetch=warp"},
		{Workload: name, Mech: MechSpec{Prefetch: "delta", PrefetchConfig: &badPf}},
		{Workload: name, Mech: MechSpec{Prefetch: "none", PrefetchConfig: &okPf}},
		{Workload: name, Mech: MechSpec{L1DPredConfig: &okLc}},
	} {
		if _, err := spec.Canonical(); err == nil {
			t.Errorf("Canonical(%+v) succeeded, want error", spec)
		}
	}
}

// TestQualifiedMechanismHashStability: the qualified name and the equivalent
// explicit MechSpec are one simulation, and the registry round-trip
// (name → MechSpec → Canonical → hash) is stable for every preset × axis
// combination.
func TestQualifiedMechanismHashStability(t *testing.T) {
	name := testWorkload(t)
	named := JobSpec{Workload: name, Mechanism: "constable,bpred=bimodal,prefetch=delta", Instructions: 10_000}
	explicit := JobSpec{Workload: name, Mech: MechSpec{Constable: true, BPred: "bimodal", Prefetch: "delta"}, Instructions: 10_000}
	hn, err := named.Hash()
	if err != nil {
		t.Fatal(err)
	}
	he, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hn != he {
		t.Error("qualified name and explicit axis MechSpec hash differently")
	}

	seen := map[string]string{}
	for _, preset := range sim.MechanismNames() {
		for _, suffix := range []string{"", ",bpred=bimodal", ",prefetch=delta", ",prefetch=none", ",l1dpred=counter", ",l1dpred=global"} {
			qname := preset + suffix
			mech, err := sim.MechanismByName(qname)
			if err != nil {
				t.Fatalf("MechanismByName(%q): %v", qname, err)
			}
			if got := sim.MechanismName(mech); got != qname {
				t.Errorf("MechanismName inverse broken: %q -> %q", qname, got)
			}
			spec := JobSpec{Workload: name, Mechanism: qname, Instructions: 10_000}
			h1, err := spec.Hash()
			if err != nil {
				t.Fatal(err)
			}
			h2, err := spec.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if h1 != h2 {
				t.Errorf("hash of %q unstable", qname)
			}
			if prev, dup := seen[h1]; dup {
				t.Errorf("distinct mechanisms %q and %q collide on %s", prev, qname, h1)
			}
			seen[h1] = qname
		}
	}
}
