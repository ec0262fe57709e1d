package experiment

import (
	"cloudlb/internal/elastic"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

// Spec is the single scenario description behind every evaluation entry
// point: cmd/lbsim, cmd/figures, the service and the benchmark set all
// build one Spec and run it through a registered method (Spec.Run),
// instead of threading ad-hoc parameter bundles through per-figure
// function signatures. The axis fields (Cores, Strategies, Seeds,
// EpsFracs, Periods, DropPcts, StraggleFactors) enumerate a matrix; each
// method documents which axes it consumes (see methods.go).
type Spec struct {
	// App is the measured application (required for every method).
	App AppKind `json:"app"`
	// Cores lists core counts. scenarios and evaluate iterate all of
	// them; the single-allocation methods (compare, sweep, elasticity,
	// net) need exactly one.
	Cores []int `json:"cores"`
	// Strategies lists the balancers for scenarios, compare, elasticity
	// and net (empty = [noLB]).
	Strategies []StrategyKind `json:"strategies,omitempty"`
	// Seeds drive measurement noise (empty = [1]); multi-seed methods
	// average over them, compare and sweep need exactly one.
	Seeds []int64 `json:"seeds,omitempty"`
	// Scale shrinks iteration counts for quick runs (default 1.0).
	Scale float64 `json:"scale,omitempty"`

	// Workload knobs consumed by the scenarios method (the standard
	// evaluation methods derive their own per the paper's methodology).
	BG                 BGKind           `json:"bg,omitempty"`
	BGWeight           float64          `json:"bg_weight,omitempty"`
	BGIters            int              `json:"bg_iters,omitempty"`
	SyncEvery          int              `json:"sync_every,omitempty"`
	CharesPerCore      int              `json:"chares_per_core,omitempty"`
	StencilBlock       int              `json:"stencil_block,omitempty"`
	EpsilonFrac        float64          `json:"epsilon_frac,omitempty"`
	DiffRounds         int              `json:"diff_rounds,omitempty"`
	DiffTol            float64          `json:"diff_tol,omitempty"`
	InteractivityBonus float64          `json:"interactivity_bonus,omitempty"`
	Hierarchical       bool             `json:"hierarchical,omitempty"`
	Faults             elastic.Schedule `json:"faults,omitempty"`
	MaxVirtualTime     sim.Time         `json:"max_virtual_time,omitempty"`

	// Net is the cluster interconnect every expanded scenario that
	// carries none runs over (see Scenario.Net; the zero value is the
	// uniform reliable default). The net method overlays its sweep cells
	// on it.
	Net xnet.Config `json:"net,omitzero"`

	// Shards selects the event scheduler for every expanded scenario
	// (see Scenario.Shards: 0/1 one shard, N>1 node shards, -1 auto). It is an
	// execution knob, not part of the scenario description: results are
	// byte-identical at every value, so CanonicalJSON and Hash exclude it.
	Shards int `json:"shards,omitempty"`

	// Sweep axes for the sweep method.
	EpsFracs []float64 `json:"eps_fracs,omitempty"`
	Periods  []int     `json:"periods,omitempty"`

	// Sweep axes for the net method: drop percentages and straggler
	// slowdown factors. Both must start at the reliable-uniform point
	// (0 and 1) so every cell has its baseline.
	DropPcts        []float64 `json:"drop_pcts,omitempty"`
	StraggleFactors []float64 `json:"straggle_factors,omitempty"`
}

// normalized resolves every elided Spec field to the value it runs
// with: Strategies [noLB], Seeds [1], Scale 1, and each workload knob
// its runtime default. It is the one place the defaults are decided —
// CanonicalJSON encodes its result and Spec.Run expands it — so two
// spellings that hash alike also compute alike.
func (sp Spec) normalized() Spec {
	if len(sp.Strategies) == 0 {
		sp.Strategies = []StrategyKind{NoLB}
	}
	if len(sp.Seeds) == 0 {
		sp.Seeds = []int64{1}
	}
	sp.Scale = normFloat(sp.Scale, 1)
	sp.BGWeight = normFloat(sp.BGWeight, 1)
	sp.BGIters = normInt(sp.BGIters, defaultBGIters)
	sp.SyncEvery = normInt(sp.SyncEvery, defaultSyncEvery)
	sp.CharesPerCore = normInt(sp.CharesPerCore, defaultCharesPerCore)
	sp.StencilBlock = normInt(sp.StencilBlock, defaultStencilBlock)
	sp.EpsilonFrac = normFloat(sp.EpsilonFrac, defaultEpsilonFrac)
	sp.DiffRounds = normInt(sp.DiffRounds, defaultDiffRounds)
	sp.DiffTol = normFloat(sp.DiffTol, defaultDiffTol)
	sp.MaxVirtualTime = sim.Time(normFloat(float64(sp.MaxVirtualTime), defaultMaxVirtualTime))
	return sp
}

// Scenarios expands the Spec's cross product — Cores × Strategies ×
// Seeds, in that nesting order — into a flat batch carrying every
// workload knob. It is the scenarios method's batch, and the batch
// cmd/lbsim runs directly.
func (sp Spec) Scenarios() []Scenario {
	sp = sp.normalized()
	batch := make([]Scenario, 0, len(sp.Cores)*len(sp.Strategies)*len(sp.Seeds))
	for _, cores := range sp.Cores {
		for _, k := range sp.Strategies {
			for _, seed := range sp.Seeds {
				batch = append(batch, Scenario{
					App: sp.App, Cores: cores, Strategy: k, BG: sp.BG,
					Seed: seed, BGWeight: sp.BGWeight, BGIters: sp.BGIters,
					Scale: sp.Scale, SyncEvery: sp.SyncEvery,
					CharesPerCore:      sp.CharesPerCore,
					StencilBlock:       sp.StencilBlock,
					EpsilonFrac:        sp.EpsilonFrac,
					DiffRounds:         sp.DiffRounds,
					DiffTol:            sp.DiffTol,
					InteractivityBonus: sp.InteractivityBonus,
					Hierarchical:       sp.Hierarchical,
					Faults:             sp.Faults,
					MaxVirtualTime:     sp.MaxVirtualTime,
					Net:                sp.Net,
					Shards:             sp.Shards,
				})
			}
		}
	}
	return batch
}
