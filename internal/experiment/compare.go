package experiment

import (
	"cloudlb/internal/stats"
)

// StrategyResult is one strategy's outcome on the standard interfered
// workload.
type StrategyResult struct {
	Strategy   StrategyKind
	Wall       float64
	PenaltyPct float64
	Migrations int
	EnergyJ    float64
}

// compareBatch is the compare method's batch at the Spec's single core
// count and seed: for each strategy, its interference-free baseline
// followed by its interfered run.
func compareBatch(sp Spec) []Scenario {
	app, cores, seed, scale := sp.App, sp.Cores[0], sp.Seeds[0], sp.Scale
	w := bgWeightFor(app)
	iters := bgItersFor(app)
	batch := make([]Scenario, 0, 2*len(sp.Strategies))
	for _, k := range sp.Strategies {
		batch = append(batch,
			Scenario{App: app, Cores: cores, Strategy: k, BG: BGNone, Seed: seed, Scale: scale},
			Scenario{App: app, Cores: cores, Strategy: k, BG: BGWave2D,
				Seed: seed, BGWeight: w, BGIters: iters, Scale: scale},
		)
	}
	return batch
}

// compareReduce prices every strategy's interfered run against its own
// interference-free baseline, as in the paper, in Strategies order.
func compareReduce(sp Spec, _ []Scenario, results []Result) Output {
	t := stats.NewTable("strategy", "wall s", "penalty %", "migrations", "energy J")
	var rows []StrategyResult
	for i, k := range sp.Strategies {
		base, r := results[2*i], results[2*i+1]
		row := StrategyResult{
			Strategy:   k,
			Wall:       r.AppWall,
			PenaltyPct: stats.TimingPenaltyPct(r.AppWall, base.AppWall),
			Migrations: r.Migrations,
			EnergyJ:    r.EnergyJ,
		}
		rows = append(rows, row)
		t.AddRow(row.Strategy.String(), row.Wall, row.PenaltyPct, row.Migrations, row.EnergyJ)
	}
	return Output{Rows: rows, Tables: map[string]*stats.Table{"table.csv": t}}
}
