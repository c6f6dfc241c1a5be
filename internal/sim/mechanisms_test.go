package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"constable/internal/cache"
	"constable/internal/constable"
	"constable/internal/workload"
)

func TestMechanismRegistryRoundTrip(t *testing.T) {
	names := MechanismNames()
	if len(names) == 0 || names[0] != "baseline" {
		t.Fatalf("names = %v", names)
	}
	seen := map[string]bool{}
	for _, p := range Mechanisms() {
		if seen[p.Name] {
			t.Errorf("duplicate preset %q", p.Name)
		}
		seen[p.Name] = true
		if p.Description == "" {
			t.Errorf("preset %q has no description", p.Name)
		}
		m, err := MechanismByName(p.Name)
		if err != nil {
			t.Fatalf("MechanismByName(%q): %v", p.Name, err)
		}
		if m != p.Mech {
			t.Errorf("MechanismByName(%q) = %+v, want %+v", p.Name, m, p.Mech)
		}
		if got := MechanismName(m); got != p.Name {
			t.Errorf("MechanismName(%+v) = %q, want %q", m, got, p.Name)
		}
	}
}

func TestMechanismByNameErrors(t *testing.T) {
	if m, err := MechanismByName(""); err != nil || m != (Mechanism{}) {
		t.Errorf("empty name: %+v, %v", m, err)
	}
	if _, err := MechanismByName("warp-drive"); err == nil {
		t.Error("unknown mechanism must error")
	}
}

func TestMechanismNameCustom(t *testing.T) {
	cfg := constable.DefaultConfig()
	m := Mechanism{Constable: true, ConstableConfig: &cfg}
	if got := MechanismName(m); got != "custom" {
		t.Errorf("config override must report custom, got %q", got)
	}
	if got := MechanismName(Mechanism{EVES: true, RFP: true}); got != "custom" {
		t.Errorf("non-preset combination must report custom, got %q", got)
	}
}

func TestRunResultSchema(t *testing.T) {
	spec, err := workload.ByName(workload.SmallSuite()[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Workload: spec, Instructions: 3000,
		Mech: Mechanism{EVES: true, Constable: true}})
	if err != nil {
		t.Fatal(err)
	}
	id := res.Identity
	if id.Workload != spec.Name || id.Mechanism != "eves+constable" ||
		id.Threads != 1 || id.Instructions != 3000 {
		t.Errorf("identity = %+v", id)
	}
	if res.ConfigDigest == "" {
		t.Error("config digest empty")
	}
	if res.Counters.Get("pipeline.retired") != res.Pipeline.Retired {
		t.Errorf("snapshot retired %d != typed %d",
			res.Counters.Get("pipeline.retired"), res.Pipeline.Retired)
	}
	if res.Counters.Get("constable.eliminated") != res.Constable.Eliminated {
		t.Error("snapshot and typed constable stats disagree")
	}
	if res.Counters.Get("mem.l1d_accesses") != res.L1DAccesses {
		t.Error("snapshot and typed L1-D accesses disagree")
	}
	mechs := map[string]MechanismStats{}
	for _, m := range res.Mechanisms {
		mechs[m.Name] = m
	}
	if len(mechs) != 2 {
		t.Fatalf("mechanism breakdown = %+v, want constable+eves", res.Mechanisms)
	}
	if c := mechs["constable"].Counters; c.Get("pipeline.golden_checks") == 0 {
		t.Errorf("constable breakdown missing golden checks: %v", c.Names())
	}
	if e := mechs["eves"].Counters; e.Get("eves.predictions") != res.EVESPredictions {
		t.Errorf("eves breakdown predictions %d != %d",
			e.Get("eves.predictions"), res.EVESPredictions)
	}

	// The document must round-trip through JSON (the service's wire format).
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back RunResult
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Identity != res.Identity || back.Cycles != res.Cycles ||
		back.ConfigDigest != res.ConfigDigest {
		t.Errorf("round-trip changed the document: %+v", back.Identity)
	}
	if back.Counters.Get("pipeline.retired") != res.Pipeline.Retired {
		t.Error("round-trip lost counters")
	}
	if back.Power.Total() != res.Power.Total() {
		t.Errorf("round-trip power total %v != %v", back.Power.Total(), res.Power.Total())
	}
}

func TestConfigDigestDistinguishesRuns(t *testing.T) {
	spec := workload.SmallSuite()[0]
	base, err := Run(Options{Workload: spec, Instructions: 2000})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := Run(Options{Workload: spec, Instructions: 2000, Mech: Mechanism{Constable: true}})
	if err != nil {
		t.Fatal(err)
	}
	if base.ConfigDigest == cons.ConfigDigest {
		t.Error("different mechanisms must produce different digests")
	}
	again, err := Run(Options{Workload: spec, Instructions: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if base.ConfigDigest != again.ConfigDigest {
		t.Error("identical runs must produce identical digests")
	}

	// A caller-primed stable-PC set changes what was simulated (oracle and
	// Fig. 6 accounting), so it must change the digest — and the digest must
	// not depend on map iteration order.
	pinned, err := Run(Options{Workload: spec, Instructions: 2000,
		StablePCs: map[uint64]bool{0x40: true, 0x80: true}})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.ConfigDigest == base.ConfigDigest {
		t.Error("StablePCs must be part of the digest")
	}
	pinned2, err := Run(Options{Workload: spec, Instructions: 2000,
		StablePCs: map[uint64]bool{0x80: true, 0x40: true}})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.ConfigDigest != pinned2.ConfigDigest {
		t.Error("digest must be insensitive to StablePCs map order")
	}
}

func TestQualifiedMechanismNames(t *testing.T) {
	cases := []struct {
		name string
		want Mechanism
	}{
		{"constable,bpred=bimodal", Mechanism{Constable: true, BPred: "bimodal"}},
		{"baseline,prefetch=delta", Mechanism{Prefetch: "delta"}},
		{"prefetch=none", Mechanism{Prefetch: "none"}},
		{"eves+constable,l1dpred=counter", Mechanism{EVES: true, Constable: true, L1DPred: "counter"}},
		{"constable,bpred=bimodal,prefetch=none,l1dpred=global",
			Mechanism{Constable: true, BPred: "bimodal", Prefetch: "none", L1DPred: "global"}},
		// Default variant names canonicalize away entirely.
		{"constable,bpred=tage,prefetch=stride,l1dpred=off", Mechanism{Constable: true}},
	}
	for _, c := range cases {
		m, err := MechanismByName(c.name)
		if err != nil {
			t.Fatalf("MechanismByName(%q): %v", c.name, err)
		}
		if m != c.want {
			t.Errorf("MechanismByName(%q) = %+v, want %+v", c.name, m, c.want)
		}
		// MechanismName must invert MechanismByName for every accepted name.
		back, err := MechanismByName(MechanismName(m))
		if err != nil {
			t.Fatalf("re-resolve %q: %v", MechanismName(m), err)
		}
		if back != m {
			t.Errorf("round-trip %q -> %q -> %+v, want %+v", c.name, MechanismName(m), back, m)
		}
	}
	// Axis terms on the baseline format without a leading preset comma only
	// when a preset is present; the baseline prints its own name first.
	if got := MechanismName(Mechanism{Prefetch: "delta"}); got != "baseline,prefetch=delta" {
		t.Errorf("baseline axis name = %q", got)
	}
}

func TestQualifiedMechanismNameErrors(t *testing.T) {
	for _, name := range []string{
		"constable,bpred=gshare",     // unknown variant
		"constable,warp=9",           // unknown axis
		"constable,bpred",            // malformed term
		"warp-drive,bpred=bimodal",   // unknown preset
		"constable,prefetch=bimodal", // variant of the wrong axis
		"constable,l1dpred=stride",   // variant of the wrong axis
	} {
		if _, err := MechanismByName(name); err == nil {
			t.Errorf("MechanismByName(%q) must error", name)
		}
	}
}

func TestMechanismAxesRegistry(t *testing.T) {
	axes := MechanismAxes()
	if len(axes) != 3 {
		t.Fatalf("axes = %d, want 3", len(axes))
	}
	for _, a := range axes {
		if a.Description == "" {
			t.Errorf("axis %q has no description", a.Name)
		}
		foundDefault := false
		for _, v := range a.Variants {
			if v.Description == "" {
				t.Errorf("axis %q variant %q has no description", a.Name, v.Name)
			}
			if v.Name == a.Default {
				foundDefault = true
			}
		}
		if !foundDefault {
			t.Errorf("axis %q default %q not among its variants", a.Name, a.Default)
		}
		if len(a.Params) == 0 {
			t.Errorf("axis %q documents no parameters", a.Name)
		}
		for _, p := range a.Params {
			if p.Description == "" || p.Default == nil {
				t.Errorf("axis %q param %q lacks description or default", a.Name, p.Name)
			}
		}
	}
}

func TestAxisAttachmentsConstruct(t *testing.T) {
	m, err := MechanismByName("constable,bpred=bimodal,prefetch=delta,l1dpred=counter")
	if err != nil {
		t.Fatal(err)
	}
	att, cons, _, err := m.NewAttachments()
	if err != nil {
		t.Fatal(err)
	}
	if cons == nil || att.Constable == nil {
		t.Error("preset part of the qualified name must still construct")
	}
	if att.BPred == nil || att.BPred.Config().Tables != 0 {
		t.Errorf("bpred=bimodal must construct a zero-table predictor, got %+v", att.BPred)
	}
	if att.L1Prefetch == nil {
		t.Fatal("prefetch=delta constructed nothing")
	}
	if att.L1DPred == nil {
		t.Error("l1dpred=counter constructed nothing")
	}

	// Defaults construct nothing: the core and hierarchy keep their own
	// default components, so preset behavior is untouched byte for byte.
	dm, err := MechanismByName("constable")
	if err != nil {
		t.Fatal(err)
	}
	datt, _, _, err := dm.NewAttachments()
	if err != nil {
		t.Fatal(err)
	}
	if datt.BPred != nil || datt.L1Prefetch != nil || datt.L1DPred != nil {
		t.Errorf("default axes must not construct components: %+v", datt)
	}

	// Invalid config overrides are reported, not built.
	bad := Mechanism{Prefetch: "delta", PrefetchConfig: &cache.PrefetchConfig{}}
	if _, _, _, err := bad.NewAttachments(); err == nil {
		t.Error("invalid prefetch config must error")
	}
	orphan := Mechanism{L1DPredConfig: &cache.L1DPredConfig{Entries: 16, Bits: 2}}
	if _, _, _, err := orphan.NewAttachments(); err == nil {
		t.Error("l1dpred config without a variant must error")
	}
}

func TestAxisRunsExecuteAndDiverge(t *testing.T) {
	spec := workload.SmallSuite()[0]
	base, err := Run(Options{Workload: spec, Instructions: 3000})
	if err != nil {
		t.Fatal(err)
	}
	m, err := MechanismByName("baseline,bpred=bimodal,prefetch=none,l1dpred=counter")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Workload: spec, Instructions: 3000, Mech: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.Identity.Mechanism != "baseline,bpred=bimodal,prefetch=none,l1dpred=counter" {
		t.Errorf("identity mechanism = %q", res.Identity.Mechanism)
	}
	if res.ConfigDigest == base.ConfigDigest {
		t.Error("axis selection must change the config digest")
	}
	if res.Counters.Get("l1dpred.lookups") == 0 {
		t.Error("l1dpred counters missing from the run snapshot")
	}
	if res.Counters.Get("prefetch.l1_issued") != 0 {
		t.Error("prefetch=none must issue no L1 prefetches")
	}
	if base.Counters.Get("prefetch.l1_issued") == 0 {
		t.Error("default stride prefetcher issued nothing on the baseline run")
	}
	names := map[string]bool{}
	for _, ms := range res.Mechanisms {
		names[ms.Name] = true
	}
	for _, want := range []string{"bpred=bimodal", "prefetch=none", "l1dpred=counter"} {
		if !names[want] {
			t.Errorf("mechanism breakdown missing %q: %v", want, res.Mechanisms)
		}
	}
	for _, ms := range base.Mechanisms {
		if strings.Contains(ms.Name, "=") {
			t.Errorf("default run breakdown gained axis entry %q", ms.Name)
		}
	}
}
