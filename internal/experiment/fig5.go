package experiment

import (
	"cloudlb/internal/elastic"
	"cloudlb/internal/sim"
	"cloudlb/internal/stats"
)

// ElasticEval is one strategy's outcome under a revocation schedule:
// wall time against the same strategy's fault-free baseline. It is the
// elasticity counterpart of the interference penalties of Figure 2 —
// here the "interference" is a spot revocation that takes a core away
// mid-run and hands back a replacement later.
type ElasticEval struct {
	Strategy    StrategyKind
	BaseWall    float64 // fault-free wall time (s), mean across seeds
	FaultWall   float64 // wall time under the schedule (s)
	PenaltyPct  float64 // timing penalty of the faults
	Evacuations int     // chares pushed off revoked cores
	Migrations  int     // strategy migrations in the faulted run
}

// elasticRunsPerCell is the number of scenarios behind one (strategy,
// seed) cell of the elasticity matrix: fault-free baseline, then the
// faulted run.
const elasticRunsPerCell = 2

// elasticityBatch is the elasticity method's batch at the Spec's single
// core count: for each strategy, for each seed, the strategy's
// fault-free baseline and its run under the Spec's fault schedule.
func elasticityBatch(sp Spec) []Scenario {
	app, cores, scale := sp.App, sp.Cores[0], sp.Scale
	batch := make([]Scenario, 0, len(sp.Strategies)*len(sp.Seeds)*elasticRunsPerCell)
	for _, k := range sp.Strategies {
		for _, seed := range sp.Seeds {
			batch = append(batch,
				Scenario{App: app, Cores: cores, Strategy: k, Seed: seed, Scale: scale},
				Scenario{App: app, Cores: cores, Strategy: k, Seed: seed, Scale: scale, Faults: sp.Faults},
			)
		}
	}
	return batch
}

// elasticityReduce averages each strategy's penalty over the seeds and
// renders the Figure 5 table: timing penalty of a spot revocation and
// replacement, per strategy.
func elasticityReduce(sp Spec, _ []Scenario, results []Result) Output {
	t := stats.NewTable("strategy", "base s", "faulted s", "penalty %", "evacuations", "migrations")
	var evals []ElasticEval
	for ki, k := range sp.Strategies {
		mean := func(slot int, m func(Result) float64) float64 {
			return seedMean(results, ki*len(sp.Seeds)*elasticRunsPerCell+slot, elasticRunsPerCell, len(sp.Seeds), m)
		}
		const base, faulted = 0, 1
		e := ElasticEval{
			Strategy:    k,
			BaseWall:    mean(base, appWall),
			FaultWall:   mean(faulted, appWall),
			PenaltyPct:  stats.TimingPenaltyPct(mean(faulted, appWall), mean(base, appWall)),
			Evacuations: int(mean(faulted, evacuations) + 0.5),
			Migrations:  int(mean(faulted, migrations) + 0.5),
		}
		evals = append(evals, e)
		t.AddRow(e.Strategy.String(), e.BaseWall, e.FaultWall, e.PenaltyPct, e.Evacuations, e.Migrations)
	}
	return Output{Rows: evals, Tables: map[string]*stats.Table{"table.csv": t}}
}

// Fig5Schedule is the canonical single-revocation script used by the
// committed Figure 5 artifact, sized relative to the application's solo
// wall time (Wave2D weak scaling, see the workload constants): the PE in
// the middle of the allocation gets a short revocation warning at ~25%
// of the run and loses its core at 30%; at 50% a replacement core — the
// first one outside the allocation, or the original core when the
// allocation spans the whole testbed — brings the PE back.
func Fig5Schedule(cores int, scale float64) elastic.Schedule {
	perIter := float64(charesPerCore*stencilBlock*stencilBlock) * waveCostPerCell
	total := sim.Time(perIter * float64(scaleIters(waveIters, scale)))
	replacement := cores
	if replacement >= testbedCores {
		replacement = -1
	}
	return elastic.Schedule{{
		PE:              cores / 2,
		At:              total * 0.30,
		Warning:         total * 0.05,
		Restore:         total * 0.50,
		ReplacementCore: replacement,
	}}
}
