package experiment

import (
	"cloudlb/internal/sim"
	"cloudlb/internal/stats"
	"cloudlb/internal/trace"
)

// Eval bundles everything the paper reports for one application at one
// core count: Figure 2's timing penalties and Figure 4's power and
// normalized energy overheads, for both the noLB and RefineLB runs.
type Eval struct {
	App   AppKind
	Cores int

	// Interference-free baselines. The paper's timing penalty compares a
	// run against "the same run without any interference", so the noLB
	// and RefineLB runs each have their own baseline (they differ when
	// the application is internally imbalanced, as Mol3D is).
	BaseWallNoLB float64
	BaseWallLB   float64
	BGBase       float64 // background job's solo wall time (s)

	PenAppNoLB float64 // % timing penalty, application, no load balancing
	PenAppLB   float64 // % timing penalty, application, RefineLB
	PenBGNoLB  float64 // % timing penalty, background job, no LB
	PenBGLB    float64 // % timing penalty, background job, RefineLB

	PowerBase float64 // avg W, interference-free run
	PowerNoLB float64 // avg W, interfered, no LB
	PowerLB   float64 // avg W, interfered, RefineLB

	EnergyOvhNoLB float64 // % energy overhead vs interference-free run
	EnergyOvhLB   float64

	MigrationsLB int // objects migrated by RefineLB (mean across seeds)
	LBSteps      int
}

// bgWeightFor models the OS preference the paper observed: for Mol3D the
// operating system allocated a large share of the CPU to the background
// job (§V.A: noLB penalties up to 400%); a 4x scheduling weight reproduces
// that preference. The stencil codes saw roughly equal sharing.
func bgWeightFor(app AppKind) float64 {
	if app == Mol3D {
		return 4
	}
	return 1
}

// bgItersFor sizes the background job so it spans the interfered run:
// Mol3D under a 4x-preferred background is slowed far more than the
// stencils, so its background job runs longer (the paper keeps the
// background workload constant within each application's panel).
func bgItersFor(app AppKind) int {
	if app == Mol3D {
		return 2400
	}
	return 600
}

// evalRunsPerCell is the number of scenarios behind one (core count, seed)
// cell of the Figure 2 / Figure 4 matrix, in evaluateBatch order:
// interference-free noLB, interference-free RefineLB, background alone,
// interfered noLB, interfered RefineLB.
const evalRunsPerCell = 5

// evaluateBatch is the evaluate method's batch — the full Figure 2 +
// Figure 4 measurement matrix: for each core count, for each seed, the
// evalRunsPerCell runs of that cell.
func evaluateBatch(sp Spec) []Scenario {
	app, scale := sp.App, sp.Scale
	w := bgWeightFor(app)
	iters := bgItersFor(app)
	batch := make([]Scenario, 0, len(sp.Cores)*len(sp.Seeds)*evalRunsPerCell)
	for _, cores := range sp.Cores {
		for _, seed := range sp.Seeds {
			batch = append(batch,
				Scenario{App: app, Cores: cores, Strategy: NoLB, BG: BGNone, Seed: seed, Scale: scale},
				Scenario{App: app, Cores: cores, Strategy: Refine, BG: BGNone, Seed: seed, Scale: scale},
				Scenario{App: AppNone, Cores: cores, BG: BGWave2D, Seed: seed, BGIters: iters, Scale: scale},
				Scenario{App: app, Cores: cores, Strategy: NoLB, BG: BGWave2D, Seed: seed, BGWeight: w, BGIters: iters, Scale: scale},
				Scenario{App: app, Cores: cores, Strategy: Refine, BG: BGWave2D, Seed: seed, BGWeight: w, BGIters: iters, Scale: scale},
			)
		}
	}
	return batch
}

// evaluateReduce averages each core count's cells over the seeds into
// one Eval row, rendered as Figure 2 (table.csv: timing penalty versus
// core count for the parallel job and the background job, with and
// without load balancing) and Figure 4 (energy.csv: average power and
// normalized energy overhead).
func evaluateReduce(sp Spec, _ []Scenario, results []Result) Output {
	fig2 := stats.NewTable("cores", "noLB %", "LB %", "BG noLB %", "BG LB %")
	fig4 := stats.NewTable("cores", "noLB W", "LB W", "noLB energy ovh %", "LB energy ovh %")
	var evals []Eval
	for ci, cores := range sp.Cores {
		// mean averages run slot's m over the core count's seeds.
		mean := func(slot int, m func(Result) float64) float64 {
			return seedMean(results, ci*len(sp.Seeds)*evalRunsPerCell+slot, evalRunsPerCell, len(sp.Seeds), m)
		}
		const baseNoLB, baseLB, bgAlone, noLB, lb = 0, 1, 2, 3, 4
		e := Eval{
			App: sp.App, Cores: cores,
			BaseWallNoLB:  mean(baseNoLB, appWall),
			BaseWallLB:    mean(baseLB, appWall),
			BGBase:        mean(bgAlone, bgWall),
			PenAppNoLB:    stats.TimingPenaltyPct(mean(noLB, appWall), mean(baseNoLB, appWall)),
			PenAppLB:      stats.TimingPenaltyPct(mean(lb, appWall), mean(baseLB, appWall)),
			PenBGNoLB:     stats.TimingPenaltyPct(mean(noLB, bgWall), mean(bgAlone, bgWall)),
			PenBGLB:       stats.TimingPenaltyPct(mean(lb, bgWall), mean(bgAlone, bgWall)),
			PowerBase:     mean(baseNoLB, powerW),
			PowerNoLB:     mean(noLB, powerW),
			PowerLB:       mean(lb, powerW),
			EnergyOvhNoLB: stats.EnergyOverheadPct(mean(noLB, energyJ), mean(baseNoLB, energyJ)),
			EnergyOvhLB:   stats.EnergyOverheadPct(mean(lb, energyJ), mean(baseLB, energyJ)),
			MigrationsLB:  int(mean(lb, migrations) + 0.5),
			LBSteps:       int(mean(lb, lbSteps) + 0.5),
		}
		evals = append(evals, e)
		fig2.AddRow(e.Cores, e.PenAppNoLB, e.PenAppLB, e.PenBGNoLB, e.PenBGLB)
		fig4.AddRow(e.Cores, e.PowerNoLB, e.PowerLB, e.EnergyOvhNoLB, e.EnergyOvhLB)
	}
	return Output{Rows: evals, Tables: map[string]*stats.Table{"table.csv": fig2, "energy.csv": fig4}}
}

// seedMean averages m over n runs starting at results[first], stride
// apart: one measurement of one matrix cell across the seeds. The values
// are gathered in seed order, so every float accumulates in the same
// order at any executor width.
func seedMean(results []Result, first, stride, n int, m func(Result) float64) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = m(results[first+i*stride])
	}
	return stats.Mean(v)
}

// Result measurements the reducers average.
func appWall(r Result) float64     { return r.AppWall }
func bgWall(r Result) float64      { return r.BGWall }
func powerW(r Result) float64      { return r.AvgPowerW }
func energyJ(r Result) float64     { return r.EnergyJ }
func migrations(r Result) float64  { return float64(r.Migrations) }
func lbSteps(r Result) float64     { return float64(r.LBSteps) }
func evacuations(r Result) float64 { return float64(r.Evacuations) }
func retransmits(r Result) float64 { return float64(r.NetRetransmits) }

// Fig1Result carries the timeline experiment of Figure 1.
type Fig1Result struct {
	Trace *trace.Recorder
	// HogStart is when the 1-core interfering job begins (mid-run).
	HogStart sim.Time
	// AppFinish is the application's completion time.
	AppFinish sim.Time
	// Cores are the timeline rows to render.
	Cores []int
}

// Fig1 reproduces the paper's Figure 1: Wave2D on the 4 cores of one node,
// no load balancing; after a few iterations a 1-core job starts on core 3
// (the paper's Core#4) and disturbs the balance.
func Fig1(scale float64) Fig1Result {
	if scale <= 0 {
		scale = 1
	}
	rec := trace.NewRecorder()
	s := Scenario{App: Wave2D, Cores: 4, Strategy: NoLB, BG: BGNone, Seed: 1, Scale: scale, Trace: rec}
	// Estimate solo wall to place the hog mid-run: per iteration, each
	// core computes 16 chares x 256 cells x waveCostPerCell.
	perIter := float64(charesPerCore*stencilBlock*stencilBlock) * waveCostPerCell
	iters := scaleIters(waveIters, scale)
	hogStart := sim.Time(perIter * float64(iters) / 3)

	sh := sim.NewShards(1, 0)
	mach := testbed(sh, testbedNodes, 0, nil)
	net := newNet(mach)
	cores := []int{0, 1, 2, 3}
	rts := newAppRTS(mach, net, cores, NoLB, rec)
	buildApp(rts, s, newRNG(s.Seed))
	interfereHog(mach, 3, hogStart, 0, rec)
	rts.Start()
	mustFinish(sh, mach, rts.Finished, 10000)
	return Fig1Result{Trace: rec, HogStart: hogStart, AppFinish: rts.FinishTime(), Cores: cores}
}

// Fig3Result carries the dynamic-adaptation timeline of Figure 3.
type Fig3Result struct {
	Trace      *trace.Recorder
	Hog1Start  sim.Time
	Hog1Stop   sim.Time
	Hog2Start  sim.Time
	Hog2Stop   sim.Time
	AppFinish  sim.Time
	Cores      []int
	Migrations int
}

// Fig3 reproduces the paper's Figure 3: a 4-core Wave2D run with RefineLB;
// interference appears on core 1, the balancer sheds its load, the
// interference ends (tasks migrate back), then new interference appears
// on core 3 and the balancer adapts again.
func Fig3(scale float64) Fig3Result {
	if scale <= 0 {
		scale = 1
	}
	rec := trace.NewRecorder()
	s := Scenario{App: Wave2D, Cores: 4, Strategy: Refine, BG: BGNone, Seed: 1, Scale: scale, Trace: rec}
	perIter := float64(charesPerCore*stencilBlock*stencilBlock) * waveCostPerCell
	iters := scaleIters(waveIters, scale)
	total := sim.Time(perIter * float64(iters))

	res := Fig3Result{
		Trace:     rec,
		Hog1Start: total / 8,
		Hog1Stop:  total * 3 / 8,
		Hog2Start: total * 5 / 8,
		Hog2Stop:  total * 7 / 8,
		Cores:     []int{0, 1, 2, 3},
	}
	sh := sim.NewShards(1, 0)
	mach := testbed(sh, testbedNodes, 0, nil)
	net := newNet(mach)
	rts := newAppRTS(mach, net, res.Cores, Refine, rec)
	buildApp(rts, s, newRNG(s.Seed))
	interfereHog(mach, 1, res.Hog1Start, res.Hog1Stop, rec)
	interfereHog(mach, 3, res.Hog2Start, res.Hog2Stop, rec)
	rts.Start()
	mustFinish(sh, mach, rts.Finished, 10000)
	res.AppFinish = rts.FinishTime()
	res.Migrations = rts.Migrations()
	return res
}
