package experiment

import (
	"fmt"

	"cloudlb/internal/stats"
)

// SweepPoint is one cell of a design-parameter sensitivity sweep.
type SweepPoint struct {
	EpsilonFrac float64
	SyncEvery   int
	PenaltyPct  float64
	Migrations  int
	LBSteps     int
}

// sweepBatch is the sweep method's batch, mapping RefineLB's two
// tunables — the tolerance ε (as a fraction of T_avg, the EpsFracs axis)
// and the load balancing period (the Periods axis) — on the standard
// interfered workload at the Spec's single core count and seed: the
// interference-free baseline first, then one interfered run per
// (epsilon, period) cell in grid order. It quantifies the design
// constraints documented in DESIGN.md: ε must stay below the
// background-induced uplift of T_avg (~1/P), and the period trades
// reaction latency against LB overhead.
func sweepBatch(sp Spec) []Scenario {
	app, cores, seed, scale := sp.App, sp.Cores[0], sp.Seeds[0], sp.Scale
	batch := make([]Scenario, 0, 1+len(sp.EpsFracs)*len(sp.Periods))
	batch = append(batch, Scenario{App: app, Cores: cores, Strategy: Refine, BG: BGNone, Seed: seed, Scale: scale})
	for _, eps := range sp.EpsFracs {
		for _, period := range sp.Periods {
			batch = append(batch, Scenario{
				App: app, Cores: cores, Strategy: Refine, BG: BGWave2D,
				Seed: seed, BGWeight: bgWeightFor(app), BGIters: bgItersFor(app),
				Scale: scale, EpsilonFrac: eps, SyncEvery: period,
			})
		}
	}
	return batch
}

// sweepReduce prices every grid cell against the baseline.
func sweepReduce(sp Spec, _ []Scenario, results []Result) Output {
	t := stats.NewTable("eps_frac", "sync_every", "penalty %", "migrations", "lb_steps")
	base := results[0]
	var points []SweepPoint
	for i, eps := range sp.EpsFracs {
		for j, period := range sp.Periods {
			r := results[1+i*len(sp.Periods)+j]
			p := SweepPoint{
				EpsilonFrac: eps,
				SyncEvery:   period,
				PenaltyPct:  stats.TimingPenaltyPct(r.AppWall, base.AppWall),
				Migrations:  r.Migrations,
				LBSteps:     r.LBSteps,
			}
			points = append(points, p)
			t.AddRow(fmt.Sprintf("%.3f", p.EpsilonFrac), p.SyncEvery, p.PenaltyPct, p.Migrations, p.LBSteps)
		}
	}
	return Output{Rows: points, Tables: map[string]*stats.Table{"table.csv": t}}
}
