// Package service is the execution subsystem shared by the CLI tools, the
// experiment drivers and cmd/constable-server: a canonical, content-hashable
// JobSpec describing one simulation, a Scheduler with per-job status
// tracking and refcounted submitter interest, an LRU result cache plus an
// optional persistent content-addressed store keyed by spec hash, a
// streaming sweep engine, and an HTTP API over all of it. One engine runs
// every simulation in the repo, so identical (workload, mechanism, budget)
// cells — whether they come from two HTTP clients or from two experiment
// drivers — are simulated exactly once per process, and once ever with a
// DataDir.
//
// Execution is pluggable: the scheduler dispatches through a Backend —
// LocalBackend simulates in-process, RemoteBackend sends one job per HTTP
// request to a cmd/constable-worker node, and MultiBackend (the default
// wrapper) composes the local pool with every remote worker registered at
// runtime under capacity-aware dispatch, per-worker health tracking, and
// requeue of a dead worker's in-flight jobs. Results are transported and
// persisted as sim.ResultEnvelope documents whose recorded spec hash is
// verified at every boundary, so a result can never be filed under the
// wrong content address. See docs/ARCHITECTURE.md for the dataflow and
// docs/API.md for the HTTP surface.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"constable/internal/bpred"
	"constable/internal/cache"
	"constable/internal/constable"
	"constable/internal/pipeline"
	"constable/internal/sim"
	"constable/internal/workload"
)

// MechSpec is the serializable form of sim.Mechanism: the mechanism flags,
// the component-axis variant selections, and the optional configuration
// overrides. Every axis field is default-elided (omitempty), so specs that
// predate the axes keep their JSON encoding — and their content hash —
// byte for byte.
type MechSpec struct {
	EVES      bool `json:"eves,omitempty"`
	Constable bool `json:"constable,omitempty"`
	RFP       bool `json:"rfp,omitempty"`
	ELAR      bool `json:"elar,omitempty"`

	IdealConstable     bool `json:"ideal_constable,omitempty"`
	IdealStableLVP     bool `json:"ideal_stable_lvp,omitempty"`
	IdealDataFetchElim bool `json:"ideal_data_fetch_elim,omitempty"`

	// Config overrides the default Constable configuration.
	Config *constable.Config `json:"config,omitempty"`

	// Component-axis variant names (sim.MechanismAxes lists the vocabulary;
	// empty selects the axis default) with optional config overrides.
	// Canonical normalizes default variant names and default-equal overrides
	// away, so equivalent specs hash equal.
	BPred    string `json:"bpred,omitempty"`
	Prefetch string `json:"prefetch,omitempty"`
	L1DPred  string `json:"l1dpred,omitempty"`

	BPredConfig    *bpred.Config         `json:"bpred_config,omitempty"`
	PrefetchConfig *cache.PrefetchConfig `json:"prefetch_config,omitempty"`
	L1DPredConfig  *cache.L1DPredConfig  `json:"l1dpred_config,omitempty"`
}

// ToMechanism converts the spec into the sim package's mechanism set.
func (m MechSpec) ToMechanism() sim.Mechanism {
	return sim.Mechanism{
		EVES:               m.EVES,
		Constable:          m.Constable,
		RFP:                m.RFP,
		ELAR:               m.ELAR,
		IdealConstable:     m.IdealConstable,
		IdealStableLVP:     m.IdealStableLVP,
		IdealDataFetchElim: m.IdealDataFetchElim,
		ConstableConfig:    m.Config,
		BPred:              m.BPred,
		Prefetch:           m.Prefetch,
		L1DPred:            m.L1DPred,
		BPredConfig:        m.BPredConfig,
		PrefetchConfig:     m.PrefetchConfig,
		L1DPredConfig:      m.L1DPredConfig,
	}
}

// mechSpecFromMechanism is the inverse of ToMechanism.
func mechSpecFromMechanism(m sim.Mechanism) MechSpec {
	return MechSpec{
		EVES:               m.EVES,
		Constable:          m.Constable,
		RFP:                m.RFP,
		ELAR:               m.ELAR,
		IdealConstable:     m.IdealConstable,
		IdealStableLVP:     m.IdealStableLVP,
		IdealDataFetchElim: m.IdealDataFetchElim,
		Config:             m.ConstableConfig,
		BPred:              m.BPred,
		Prefetch:           m.Prefetch,
		L1DPred:            m.L1DPred,
		BPredConfig:        m.BPredConfig,
		PrefetchConfig:     m.PrefetchConfig,
		L1DPredConfig:      m.L1DPredConfig,
	}
}

// MechanismNames lists the named mechanism configurations accepted by
// ParseMechanism, in presentation order (sim's mechanism registry).
func MechanismNames() []string { return sim.MechanismNames() }

// ParseMechanism resolves a named mechanism configuration through sim's
// mechanism registry — the single name→configuration table shared by
// constable-sim's -mech flag and the HTTP API's "mechanism" field.
func ParseMechanism(s string) (MechSpec, error) {
	m, err := sim.MechanismByName(s)
	if err != nil {
		return MechSpec{}, err
	}
	return mechSpecFromMechanism(m), nil
}

// canonical validates the mechanism spec and normalizes it so equivalent
// specs compare and hash equal: axis variant names canonicalize through
// sim's axis registry (default names become ""), config overrides are
// deep-copied, and an override that equals the variant's default
// configuration is elided to nil — a spec spelling out
// constable.DefaultConfig() runs the exact simulation the bare preset runs,
// so it must land on the same content address.
func (m MechSpec) canonical() (MechSpec, error) {
	cm, err := m.ToMechanism().CanonicalAxes()
	if err != nil {
		return m, err
	}
	c := mechSpecFromMechanism(cm)
	if c.Config != nil {
		if *c.Config == constable.DefaultConfig() {
			c.Config = nil
		} else {
			cfg := *c.Config
			c.Config = &cfg
		}
	}
	if c.BPredConfig != nil {
		if err := c.BPredConfig.Validate(); err != nil {
			return m, fmt.Errorf("service: bpred config: %w", err)
		}
		base := bpred.DefaultConfig()
		if c.BPred == "bimodal" {
			base = bpred.BimodalConfig()
		}
		if *c.BPredConfig == base {
			c.BPredConfig = nil
		} else {
			cfg := *c.BPredConfig
			c.BPredConfig = &cfg
		}
	}
	if c.PrefetchConfig != nil {
		if c.Prefetch == "none" {
			return m, fmt.Errorf("service: prefetch=none takes no config override")
		}
		if err := c.PrefetchConfig.Validate(); err != nil {
			return m, fmt.Errorf("service: prefetch config: %w", err)
		}
		if *c.PrefetchConfig == cache.DefaultPrefetchConfig() {
			c.PrefetchConfig = nil
		} else {
			cfg := *c.PrefetchConfig
			c.PrefetchConfig = &cfg
		}
	}
	if c.L1DPredConfig != nil {
		if c.L1DPred == "" {
			return m, fmt.Errorf("service: l1dpred config override requires a variant (counter or global)")
		}
		if err := c.L1DPredConfig.Validate(); err != nil {
			return m, fmt.Errorf("service: l1dpred config: %w", err)
		}
		// The variant decides the Global flag, so it never differentiates
		// specs; canonicalize it to the variant's value before comparing.
		cfg := *c.L1DPredConfig
		cfg.Global = c.L1DPred == "global"
		def := cache.DefaultL1DPredConfig()
		def.Global = cfg.Global
		if cfg == def {
			c.L1DPredConfig = nil
		} else {
			c.L1DPredConfig = &cfg
		}
	}
	return c, nil
}

// JobSpec canonically describes one simulation run. Two specs that resolve
// to the same simulation have equal hashes, so the scheduler can serve one
// from the other's result.
type JobSpec struct {
	// Workload names a workload from the suite (workload.Names).
	Workload string `json:"workload"`
	// Mechanism, when non-empty, names a mechanism configuration
	// (ParseMechanism) and overrides Mech. The HTTP API uses this form;
	// programmatic callers may fill Mech directly instead.
	Mechanism string `json:"mechanism,omitempty"`
	// Mech is the explicit mechanism set (ignored when Mechanism is set).
	Mech MechSpec `json:"mech,omitzero"`

	// Instructions is the committed-path budget per thread (default 100k,
	// matching sim.Run).
	Instructions uint64 `json:"instructions,omitempty"`
	// Threads selects noSMT (1, the default) or SMT2 (2).
	Threads int `json:"threads,omitempty"`
	// APX selects the 32-register build of the workload (appendix B).
	APX bool `json:"apx,omitempty"`

	// Core overrides the default core configuration (width/depth sweeps).
	Core *pipeline.Config `json:"core,omitempty"`

	// StablePCs primes the oracles and the Fig. 6 accounting (sorted;
	// optional — normally the pre-pass computes it).
	StablePCs []uint64 `json:"stable_pcs,omitempty"`

	// Tenant optionally names the fair-share scheduling class this
	// submission joins (the X-Constable-Tenant header overrides it). It is
	// a scheduling attribute, not simulation identity: Canonical clears
	// it, so equal simulations hash equal — and dedup — across tenants.
	Tenant string `json:"tenant,omitempty"`
}

// Canonical returns the spec with defaults applied and the named mechanism
// resolved, so equivalent specs compare and hash equal. It errors on an
// unknown workload or mechanism name.
func (s JobSpec) Canonical() (JobSpec, error) {
	c := s
	// Tenant routes the job to a scheduling class; it does not change what
	// is simulated, so it must not differentiate content hashes.
	c.Tenant = ""
	if _, err := workload.ByName(c.Workload); err != nil {
		return c, err
	}
	if c.Mechanism != "" {
		m, err := ParseMechanism(c.Mechanism)
		if err != nil {
			return c, err
		}
		c.Mech = m
		c.Mechanism = ""
	}
	if c.Instructions == 0 {
		c.Instructions = 100_000
	}
	if c.Threads == 0 {
		c.Threads = 1
	}
	if c.Threads != 1 && c.Threads != 2 {
		return c, fmt.Errorf("service: threads must be 1 or 2, got %d", c.Threads)
	}
	mech, err := c.Mech.canonical()
	if err != nil {
		return c, err
	}
	c.Mech = mech
	if c.Core != nil {
		core := *c.Core
		c.Core = &core
	}
	if c.StablePCs != nil {
		pcs := append([]uint64(nil), c.StablePCs...)
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
		c.StablePCs = pcs
	}
	return c, nil
}

// Hash returns the spec's deterministic content hash: sha256 over the JSON
// encoding of the canonical form (struct fields encode in declaration order,
// so the encoding — and therefore the hash — is stable across processes).
func (s JobSpec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ToOptions resolves the canonical spec into runnable sim.Options.
func (s JobSpec) ToOptions() (sim.Options, error) {
	c, err := s.Canonical()
	if err != nil {
		return sim.Options{}, err
	}
	spec, err := workload.ByName(c.Workload)
	if err != nil {
		return sim.Options{}, err
	}
	opts := sim.Options{
		Workload:     spec,
		APX:          c.APX,
		Instructions: c.Instructions,
		Threads:      c.Threads,
		Mech:         c.Mech.ToMechanism(),
		Core:         c.Core,
	}
	if c.StablePCs != nil {
		stable := make(map[uint64]bool, len(c.StablePCs))
		for _, pc := range c.StablePCs {
			stable[pc] = true
		}
		opts.StablePCs = stable
	}
	return opts, nil
}

// SpecFromOptions converts sim.Options into the canonical JobSpec form —
// the bridge the experiment drivers use to route their existing option
// construction through the scheduler.
func SpecFromOptions(opts sim.Options) JobSpec {
	s := JobSpec{
		Workload:     opts.Workload.Name,
		Mech:         mechSpecFromMechanism(opts.Mech),
		Instructions: opts.Instructions,
		Threads:      opts.Threads,
		APX:          opts.APX,
		Core:         opts.Core,
	}
	if opts.StablePCs != nil {
		pcs := make([]uint64, 0, len(opts.StablePCs))
		for pc, ok := range opts.StablePCs {
			if ok {
				pcs = append(pcs, pc)
			}
		}
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
		s.StablePCs = pcs
	}
	return s
}
