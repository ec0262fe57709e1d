package experiment

import (
	"cloudlb/internal/stats"
	"cloudlb/internal/xnet"
)

// NetEval is one (drop %, straggler factor, strategy) cell of the
// network-interference matrix: wall time against the same strategy's run
// on the reliable uniform network. It is the network counterpart of the
// CPU-interference penalties of Figure 2 — here the "interference" is
// packet loss forcing retransmissions and a straggler node slowing every
// link that touches it.
type NetEval struct {
	DropPct     float64
	Straggle    float64 // straggler latency/bandwidth factor (1 = none)
	Strategy    StrategyKind
	Wall        float64 // wall time (s), mean across seeds
	PenaltyPct  float64 // timing penalty vs the reliable-uniform cell
	Migrations  int     // strategy migrations, mean across seeds
	Retransmits int     // network retransmissions, mean across seeds
}

// netCell overlays one sweep cell onto the Spec's base network: the
// cell's drop percentage, and — when the factor is not 1 — the last node
// of the application's allocation as the straggler. The last node is the
// natural victim: it hosts the interfered cores of the Fig. 2 scenarios,
// so the two interference families stress the same corner of the
// allocation.
func netCell(base xnet.Config, cores int, dropPct, straggle float64) xnet.Config {
	cfg := base
	cfg.DropPct = dropPct
	if straggle != 1 {
		cfg.StragglerNodes = []int{(cores - 1) / 4}
		cfg.StragglerFactor = straggle
	}
	return cfg
}

// netBatch is the net method's batch at the Spec's single core count:
// DropPcts × StraggleFactors × strategies × seeds, in that nesting
// order. Each cell overlays the Spec's network, resolved up front so
// every cell — the reliable baseline included — carries a
// fully-specified config that Spec.Net decoration never overwrites.
func netBatch(sp Spec) []Scenario {
	base := sp.Net.Resolved()
	cores := sp.Cores[0]
	batch := make([]Scenario, 0, len(sp.DropPcts)*len(sp.StraggleFactors)*len(sp.Strategies)*len(sp.Seeds))
	for _, drop := range sp.DropPcts {
		for _, straggle := range sp.StraggleFactors {
			net := netCell(base, cores, drop, straggle)
			for _, k := range sp.Strategies {
				for _, seed := range sp.Seeds {
					// The interfered Fig. 2 workload, not a quiet one: the
					// balancer must be active so its reaction — and its
					// migration traffic — also crosses the degraded network.
					batch = append(batch, Scenario{
						App: sp.App, Cores: cores, Strategy: k, BG: BGWave2D,
						Seed: seed, Scale: sp.Scale, Net: net,
					})
				}
			}
		}
	}
	return batch
}

// netReduce averages every cell over the seeds, prices it against the
// same strategy's reliable-uniform cell (DropPcts[0] == 0,
// StraggleFactors[0] == 1, which the method's check guarantees) and
// renders the Figure 6 table.
func netReduce(sp Spec, _ []Scenario, results []Result) Output {
	t := stats.NewTable("drop %", "straggler x", "strategy", "wall s", "penalty %", "migrations", "retransmits")
	// mean averages m over the seeds of matrix cell (di, si, ki).
	mean := func(di, si, ki int, m func(Result) float64) float64 {
		off := ((di*len(sp.StraggleFactors)+si)*len(sp.Strategies) + ki) * len(sp.Seeds)
		return seedMean(results, off, 1, len(sp.Seeds), m)
	}
	var evals []NetEval
	for di, drop := range sp.DropPcts {
		for si, straggle := range sp.StraggleFactors {
			for ki, k := range sp.Strategies {
				e := NetEval{
					DropPct:     drop,
					Straggle:    straggle,
					Strategy:    k,
					Wall:        mean(di, si, ki, appWall),
					PenaltyPct:  stats.TimingPenaltyPct(mean(di, si, ki, appWall), mean(0, 0, ki, appWall)),
					Migrations:  int(mean(di, si, ki, migrations) + 0.5),
					Retransmits: int(mean(di, si, ki, retransmits) + 0.5),
				}
				evals = append(evals, e)
				t.AddRow(e.DropPct, e.Straggle, e.Strategy.String(), e.Wall, e.PenaltyPct, e.Migrations, e.Retransmits)
			}
		}
	}
	return Output{Rows: evals, Tables: map[string]*stats.Table{"table.csv": t}}
}
