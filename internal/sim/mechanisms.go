package sim

import (
	"fmt"
	"strings"

	"constable/internal/bpred"
	"constable/internal/cache"
	"constable/internal/constable"
	"constable/internal/pipeline"
	"constable/internal/vpred"
)

// MechanismPreset is one named mechanism configuration in the registry.
type MechanismPreset struct {
	Name        string
	Description string
	Mech        Mechanism
}

// mechanismPresets is THE mechanism name→configuration table. Every consumer
// — the service API and the CLIs — resolves names through it, so
// adding a preset here makes it available everywhere at once. A preset fixes
// the table-based mechanism set; the component axes (bpred, prefetch,
// l1dpred) compose orthogonally on top via qualified names, e.g.
// "constable,bpred=bimodal,prefetch=none".
var mechanismPresets = []MechanismPreset{
	{"baseline", "strong baseline only (MRN, move/zero elimination, folding)", Mechanism{}},
	{"eves", "EVES load value prediction", Mechanism{EVES: true}},
	{"constable", "Constable load-execution elimination (§6)", Mechanism{Constable: true}},
	{"eves+constable", "EVES and Constable combined", Mechanism{EVES: true, Constable: true}},
	{"elar", "early load address resolution for stack loads", Mechanism{ELAR: true}},
	{"rfp", "register-file prefetching", Mechanism{RFP: true}},
	{"ideal", "Ideal Constable oracle: eliminate all global-stable loads (§4.4)", Mechanism{IdealConstable: true}},
	{"ideal-lvp", "Ideal Stable LVP: perfectly value-predict global-stable loads", Mechanism{IdealStableLVP: true}},
	{"ideal-lvp-dfe", "Ideal Stable LVP plus data-fetch elimination", Mechanism{IdealStableLVP: true, IdealDataFetchElim: true}},
}

// Axis names (the keys accepted in qualified mechanism names and MechSpecs).
const (
	AxisBPred    = "bpred"
	AxisPrefetch = "prefetch"
	AxisL1DPred  = "l1dpred"
)

// AxisParam documents one configuration parameter of an axis, for the
// /v1/mechanisms schema.
type AxisParam struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Default     any    `json:"default"`
}

// AxisVariant is one named variant of a component axis.
type AxisVariant struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// MechanismAxis describes one component axis of the mechanism zoo: its
// variants, the default, and the parameters a config override may set.
type MechanismAxis struct {
	Name        string        `json:"name"`
	Description string        `json:"description"`
	Default     string        `json:"default"`
	Variants    []AxisVariant `json:"variants"`
	Params      []AxisParam   `json:"params"`
}

var defaultBPredCfg = bpred.DefaultConfig()

// mechanismAxes is the axis registry. Variant names are validated against it
// and the service surfaces it verbatim under /v1/mechanisms.
var mechanismAxes = []MechanismAxis{
	{
		Name:        AxisBPred,
		Description: "branch predictor driving the front end",
		Default:     "tage",
		Variants: []AxisVariant{
			{"tage", "TAGE-like: bimodal base plus tagged geometric-history tables (Table 2)"},
			{"bimodal", "plain bimodal counter table, no history tables"},
		},
		Params: []AxisParam{
			{"tables", "number of tagged history tables (0 = bimodal only)", defaultBPredCfg.Tables},
			{"table_bits", "log2 entries per tagged table", defaultBPredCfg.TableBits},
			{"bimodal_bits", "log2 entries of the bimodal fallback table", defaultBPredCfg.BimodalBits},
			{"tag_bits", "partial-tag width of the tagged tables", defaultBPredCfg.TagBits},
			{"hist_lens", "global-history length per tagged table, ascending", defaultBPredCfg.HistLens[:defaultBPredCfg.Tables]},
			{"ras_depth", "return-address-stack depth", defaultBPredCfg.RASDepth},
			{"btb_bits", "log2 entries of the branch target buffer", defaultBPredCfg.BTBBits},
		},
	},
	{
		Name:        AxisPrefetch,
		Description: "L1-D hardware prefetcher on the demand-load path",
		Default:     "stride",
		Variants: []AxisVariant{
			{"stride", "PC-indexed stride detector, prefetches degree lines ahead (Table 2)"},
			{"delta", "PC-indexed delta-pattern correlator: replays repeating multi-delta sequences"},
			{"none", "L1-D prefetching disabled (the L2 streamer stays on)"},
		},
		Params: []AxisParam{
			{"entries", "PC-indexed table size, rounded up to a power of two", cache.DefaultPrefetchConfig().Entries},
			{"degree", "lines prefetched ahead per confident trigger", cache.DefaultPrefetchConfig().Degree},
			{"threshold", "confidence needed before prefetches issue", cache.DefaultPrefetchConfig().Threshold},
			{"max_conf", "confidence saturation cap", cache.DefaultPrefetchConfig().MaxConf},
			{"deltas", "per-PC delta-history depth (delta variant only)", cache.DefaultPrefetchConfig().Deltas},
		},
	},
	{
		Name:        AxisL1DPred,
		Description: "L1-D hit/miss predictor observing the demand-load stream (instrumentation)",
		Default:     "off",
		Variants: []AxisVariant{
			{"off", "no hit/miss predictor attached"},
			{"counter", "PC-indexed saturating-counter table"},
			{"global", "single shared counter (deliberate weak contrast)"},
		},
		Params: []AxisParam{
			{"entries", "PC-indexed counter-table size (counter variant)", cache.DefaultL1DPredConfig().Entries},
			{"bits", "saturating-counter width in bits", cache.DefaultL1DPredConfig().Bits},
		},
	},
}

// MechanismAxes returns the component-axis registry in presentation order.
// The returned slice is a copy.
func MechanismAxes() []MechanismAxis {
	return append([]MechanismAxis(nil), mechanismAxes...)
}

// axisByName returns the axis descriptor for name.
func axisByName(name string) (MechanismAxis, bool) {
	for _, a := range mechanismAxes {
		if a.Name == name {
			return a, true
		}
	}
	return MechanismAxis{}, false
}

// canonicalVariant normalizes an axis variant name: the empty string and the
// axis default both canonicalize to "", so Mechanism comparison and content
// hashing treat them identically. Unknown variants return an error.
func canonicalVariant(axis MechanismAxis, v string) (string, error) {
	if v == "" || v == axis.Default {
		return "", nil
	}
	for _, av := range axis.Variants {
		if av.Name == v {
			return v, nil
		}
	}
	known := make([]string, len(axis.Variants))
	for i, av := range axis.Variants {
		known[i] = av.Name
	}
	return "", fmt.Errorf("sim: unknown %s variant %q (known: %v)", axis.Name, v, known)
}

// CanonicalAxes returns m with every axis variant name normalized (default
// names become the empty string). Invalid variant names are reported.
func (m Mechanism) CanonicalAxes() (Mechanism, error) {
	for _, spec := range []struct {
		axis string
		v    *string
	}{
		{AxisBPred, &m.BPred},
		{AxisPrefetch, &m.Prefetch},
		{AxisL1DPred, &m.L1DPred},
	} {
		a, _ := axisByName(spec.axis)
		cv, err := canonicalVariant(a, *spec.v)
		if err != nil {
			return m, err
		}
		*spec.v = cv
	}
	return m, nil
}

// clearAxes returns m with all axis fields (variants and config overrides)
// zeroed, leaving only the table-based mechanism set.
func (m Mechanism) clearAxes() Mechanism {
	m.BPred, m.Prefetch, m.L1DPred = "", "", ""
	m.BPredConfig, m.PrefetchConfig, m.L1DPredConfig = nil, nil, nil
	return m
}

// Mechanisms returns the registry of named mechanism presets in
// presentation order. The returned slice is a copy.
func Mechanisms() []MechanismPreset {
	return append([]MechanismPreset(nil), mechanismPresets...)
}

// MechanismNames returns the preset names in presentation order.
func MechanismNames() []string {
	names := make([]string, len(mechanismPresets))
	for i, p := range mechanismPresets {
		names[i] = p.Name
	}
	return names
}

// MechanismByName resolves a mechanism name into its mechanism set. The
// empty string resolves to the baseline. Besides bare preset names, the
// qualified form "preset,axis=variant[,axis=variant...]" composes component
// axes onto a preset ("constable,bpred=bimodal,prefetch=none"); a leading
// axis term ("bpred=bimodal") composes onto the baseline. Default variant
// names canonicalize away, so MechanismName inverts this exactly.
func MechanismByName(name string) (Mechanism, error) {
	parts := strings.Split(name, ",")
	preset := strings.TrimSpace(parts[0])
	axisParts := parts[1:]
	if strings.Contains(preset, "=") {
		preset = ""
		axisParts = parts
	}
	var m Mechanism
	if preset != "" {
		found := false
		for _, p := range mechanismPresets {
			if p.Name == preset {
				m, found = p.Mech, true
				break
			}
		}
		if !found {
			return Mechanism{}, fmt.Errorf("sim: unknown mechanism %q (known: %v)", preset, MechanismNames())
		}
	}
	for _, part := range axisParts {
		part = strings.TrimSpace(part)
		axisName, variant, ok := strings.Cut(part, "=")
		if !ok {
			return Mechanism{}, fmt.Errorf("sim: malformed axis term %q in mechanism %q (want axis=variant)", part, name)
		}
		axis, ok := axisByName(strings.TrimSpace(axisName))
		if !ok {
			return Mechanism{}, fmt.Errorf("sim: unknown axis %q in mechanism %q (known: %s, %s, %s)",
				axisName, name, AxisBPred, AxisPrefetch, AxisL1DPred)
		}
		cv, err := canonicalVariant(axis, strings.TrimSpace(variant))
		if err != nil {
			return Mechanism{}, err
		}
		switch axis.Name {
		case AxisBPred:
			m.BPred = cv
		case AxisPrefetch:
			m.Prefetch = cv
		case AxisL1DPred:
			m.L1DPred = cv
		}
	}
	return m, nil
}

// MechanismName returns the registry name of m: the preset name, qualified
// with ",axis=variant" terms for non-default axes, or "custom" when the
// table-based set matches no preset or any config override is present.
// It is the inverse of MechanismByName for every name that function accepts.
func MechanismName(m Mechanism) string {
	if m.ConstableConfig != nil || m.BPredConfig != nil || m.PrefetchConfig != nil || m.L1DPredConfig != nil {
		return "custom"
	}
	cm, err := m.CanonicalAxes()
	if err != nil {
		return "custom"
	}
	base := cm.clearAxes()
	name := ""
	for _, p := range mechanismPresets {
		if p.Mech == base {
			name = p.Name
			break
		}
	}
	if name == "" {
		return "custom"
	}
	for _, t := range []struct{ axis, v string }{
		{AxisBPred, cm.BPred},
		{AxisPrefetch, cm.Prefetch},
		{AxisL1DPred, cm.L1DPred},
	} {
		if t.v != "" {
			name += "," + t.axis + "=" + t.v
		}
	}
	return name
}

// ResolvedBPredConfig returns the branch-predictor configuration m builds:
// the variant's base config with any override applied.
func (m Mechanism) ResolvedBPredConfig() bpred.Config {
	cfg := bpred.DefaultConfig()
	if m.BPred == "bimodal" {
		cfg = bpred.BimodalConfig()
	}
	if m.BPredConfig != nil {
		cfg = *m.BPredConfig
	}
	return cfg
}

// ResolvedPrefetchConfig returns the L1-D prefetcher configuration m builds
// (meaningless for the "none" variant, which takes no parameters).
func (m Mechanism) ResolvedPrefetchConfig() cache.PrefetchConfig {
	cfg := cache.DefaultPrefetchConfig()
	if m.PrefetchConfig != nil {
		cfg = *m.PrefetchConfig
	}
	return cfg
}

// ResolvedL1DPredConfig returns the L1-D hit/miss predictor configuration and
// whether the axis is enabled at all. The variant decides the Global flag.
func (m Mechanism) ResolvedL1DPredConfig() (cache.L1DPredConfig, bool) {
	v := m.L1DPred
	if v == "" || v == "off" {
		return cache.L1DPredConfig{}, false
	}
	cfg := cache.DefaultL1DPredConfig()
	if m.L1DPredConfig != nil {
		cfg = *m.L1DPredConfig
	}
	cfg.Global = v == "global"
	return cfg, true
}

// NewAttachments builds the pipeline attachments for m's table-based
// mechanisms (Constable, EVES, RFP, ELAR) and component axes (branch
// predictor, L1-D prefetcher, L1-D hit/miss predictor). The oracle
// mechanisms need a per-workload stable-load pre-pass and are layered on by
// Run; callers that drive a Core directly use this to honor the registry
// without duplicating the construction logic. It reports
// unknown axis variants and invalid config overrides.
func (m Mechanism) NewAttachments() (pipeline.Attachments, *constable.Constable, *vpred.EVES, error) {
	var att pipeline.Attachments
	var cons *constable.Constable
	var eves *vpred.EVES
	cm, err := m.CanonicalAxes()
	if err != nil {
		return att, nil, nil, err
	}

	if cm.Constable {
		ccfg := constable.DefaultConfig()
		if cm.ConstableConfig != nil {
			ccfg = *cm.ConstableConfig
		}
		cons = constable.New(ccfg)
		att.Constable = cons
	}
	if cm.EVES {
		eves = vpred.NewEVES(vpred.DefaultEVESConfig())
		att.EVES = eves
	}
	if cm.RFP {
		att.RFP = vpred.NewRFP(vpred.DefaultRFPConfig())
	}
	if cm.ELAR {
		att.ELAR = vpred.NewELAR()
	}

	// Branch-predictor axis: construct only when something deviates from the
	// default, so default runs keep the core's own construction path.
	if cm.BPred != "" || cm.BPredConfig != nil {
		bcfg := cm.ResolvedBPredConfig()
		if err := bcfg.Validate(); err != nil {
			return att, nil, nil, fmt.Errorf("sim: bpred axis: %w", err)
		}
		att.BPred = bpred.New(bcfg)
	}
	// Prefetch axis.
	switch cm.Prefetch {
	case "":
		if cm.PrefetchConfig != nil {
			pcfg := cm.ResolvedPrefetchConfig()
			if err := pcfg.Validate(); err != nil {
				return att, nil, nil, fmt.Errorf("sim: prefetch axis: %w", err)
			}
			att.L1Prefetch = cache.NewStridePrefetcherWith(pcfg)
		}
	case "delta":
		pcfg := cm.ResolvedPrefetchConfig()
		if err := pcfg.Validate(); err != nil {
			return att, nil, nil, fmt.Errorf("sim: prefetch axis: %w", err)
		}
		att.L1Prefetch = cache.NewDeltaPrefetcher(pcfg)
	case "none":
		if cm.PrefetchConfig != nil {
			return att, nil, nil, fmt.Errorf("sim: prefetch=none takes no config override")
		}
		att.L1Prefetch = cache.NonePrefetcher{}
	}
	// L1-D hit/miss predictor axis.
	if lcfg, on := cm.ResolvedL1DPredConfig(); on {
		if err := lcfg.Validate(); err != nil {
			return att, nil, nil, fmt.Errorf("sim: l1dpred axis: %w", err)
		}
		att.L1DPred = cache.NewL1DPredictor(lcfg)
	} else if cm.L1DPredConfig != nil {
		return att, nil, nil, fmt.Errorf("sim: l1dpred config override requires a variant (counter or global)")
	}
	return att, cons, eves, nil
}

// NeedsStableAnalysis reports whether running m requires the stable-load
// pre-pass (any oracle mechanism).
func (m Mechanism) NeedsStableAnalysis() bool {
	return m.IdealConstable || m.IdealStableLVP
}
