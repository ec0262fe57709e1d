package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"cloudlb/internal/experiment"
	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
	"cloudlb/internal/runner"
	"cloudlb/internal/xnet"
)

// stencilBatch is Figure 2's hot path: {Wave2D, Jacobi2D} × {noLB,
// RefineLB} on the 32-core testbed against the 2-core Wave2D job.
func stencilBatch(seed int64) []experiment.Scenario {
	var batch []experiment.Scenario
	for _, app := range []experiment.AppKind{experiment.Wave2D, experiment.Jacobi2D} {
		for _, k := range []experiment.StrategyKind{experiment.NoLB, experiment.Refine} {
			batch = append(batch, experiment.Scenario{
				App: app, Cores: 32, Strategy: k, BG: experiment.BGWave2D, Seed: seed, Scale: 0.5,
			})
		}
	}
	return batch
}

// mol3dScenario is Mol3D against the 4×-weighted background job on two
// shards — the only workload that runs sim.Shards.
func mol3dScenario(seed int64) experiment.Scenario {
	return experiment.Scenario{
		App: experiment.Mol3D, Cores: 32, Strategy: experiment.Refine,
		BG: experiment.BGWave2D, BGWeight: 4, BGIters: 2400, Scale: 0.4,
		Seed: seed, Shards: 2,
	}
}

// churnScenario is Wave2D on 256 cores with tiny grains under seeded
// tenant churn and 2% packet drop, balanced by DiffusionLB.
func churnScenario(seed int64) experiment.Scenario {
	return experiment.Scenario{
		App: experiment.Wave2D, Cores: 256, CharesPerCore: 32, StencilBlock: 4,
		SyncEvery: 5, Scale: 0.1, Strategy: experiment.Diffusion,
		BG: experiment.BGCloudChurn, Seed: seed,
		Net: xnet.Config{DropPct: 2, Seed: seed},
	}
}

func scenarioKey(s experiment.Scenario) string {
	return fmt.Sprintf("%s/%s/cores%d/seed%d", s.App, s.Strategy, s.Cores, s.Seed)
}

// sane rejects results no correct run produces, for ops that have no
// recorded reference to compare with yet.
func sane(r refResult) error {
	if !(r.AppWall > 0) || math.IsInf(float64(r.AppWall), 0) || r.Events == 0 || !(r.EnergyJ > 0) {
		return fmt.Errorf("implausible result %+v", r)
	}
	return nil
}

// stencilTestbed runs the whole batch through a 2-worker runner pool per
// op (the `figures` experience).
type stencilTestbed struct {
	refs  refTable
	batch []experiment.Scenario
	first []refResult // the run's first batch: later batches must match it
}

const stencilWorkers = 2

func (w *stencilTestbed) setup(seed int64) error {
	w.batch = stencilBatch(seed)
	w.first = nil
	// Warm-up: the same batch at a tenth of the iterations, so heaps and
	// caches are grown before the first timed batch.
	warm := append([]experiment.Scenario(nil), w.batch...)
	for i := range warm {
		warm[i].Scale = 0.1
	}
	pool := &runner.Pool{Workers: stencilWorkers}
	_, _, err := pool.RunBatch(context.Background(), warm)
	return err
}

func (w *stencilTestbed) op(tr *layers) []opRecord {
	batch := append([]experiment.Scenario(nil), w.batch...)
	pool := &runner.Pool{Workers: stencilWorkers}
	ctx := context.Background()
	var reg *metrics.Registry
	if tr != nil {
		reg = metrics.NewRegistry()
		pool.Metrics = reg
		for i := range batch {
			batch[i].Metrics = reg
		}
		// The pool hands the context's trace to every scenario.
		ctx = obs.NewContext(ctx, obs.NewTrace("perfbench", nil))
	}
	t0 := time.Now()
	results, stats, err := pool.RunBatch(ctx, batch)
	wall := time.Since(t0)
	if err == nil {
		err = w.verify(results)
	}
	if tr != nil && err == nil {
		s := readSeries(reg.Gather())
		tr.observeSim(s, wall.Seconds())
		var busy time.Duration
		for _, sc := range stats.Scenarios {
			busy += sc.Wall
		}
		tr.observe("runner.busy_frac", busy.Seconds()/(stencilWorkers*wall.Seconds()))
		if q, ok := s["runner_queue_wait_seconds"]; ok {
			tr.observe("runner.queue_wait_s", q)
		}
	}
	return []opRecord{{kind: "batch", wall: wall, err: err}}
}

func (w *stencilTestbed) verify(results []experiment.Result) error {
	if len(results) != len(w.batch) {
		return fmt.Errorf("batch returned %d results, want %d", len(results), len(w.batch))
	}
	var errs []error
	for i, r := range results {
		key, got := scenarioKey(w.batch[i]), refOf(r)
		if err := sane(got); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", key, err))
		}
		if err := w.refs.check(key, got); err != nil {
			errs = append(errs, err)
		}
		if w.first != nil {
			if err := w.first[i].diff(got); err != nil {
				errs = append(errs, fmt.Errorf("%s differs from the run's first batch: %w", key, err))
			}
		}
	}
	if w.first == nil && len(errs) == 0 {
		for _, r := range results {
			w.first = append(w.first, refOf(r))
		}
	}
	return errors.Join(errs...)
}

func (w *stencilTestbed) close() {}

// scenarioWorkload times one experiment.Run per op (the `lbsim`
// experience). Ops cycle through the inputs scenarios drawn from the seed.
// A sharded input must match the classic single-engine run of the same
// scenario made in setup. An unsharded op is itself the classic run, so
// setup only warms up on a quarter-size copy and every later op of the
// input must match its first.
type scenarioWorkload struct {
	build func(seed int64) experiment.Scenario
	// inputs is how many scenario seeds a run cycles through. Where the
	// seed moves the scenario's cost, several inputs keep op_s from
	// following one seed's luck.
	inputs int
	refs   refTable
	ss     []experiment.Scenario
	want   []*refResult
	next   int
}

// inputSeed is the scenario seed of a run's i-th input. Seed 1's inputs
// keep the scenario seeds 1, 2, ... the reference was recorded on.
func inputSeed(seed int64, i, inputs int) int64 {
	return (seed-1)*int64(inputs) + int64(i) + 1
}

func (w *scenarioWorkload) setup(seed int64) error {
	w.ss, w.want, w.next = nil, nil, 0
	for i := 0; i < w.inputs; i++ {
		s := w.build(inputSeed(seed, i, w.inputs))
		w.ss = append(w.ss, s)
		if s.Shards <= 1 {
			warm := s
			warm.Cores /= 4
			if err := sane(refOf(experiment.Run(warm))); err != nil {
				return fmt.Errorf("warm-up run of %s: %w", scenarioKey(warm), err)
			}
			w.want = append(w.want, nil)
			continue
		}
		classic := s
		classic.Shards = 1
		ref := refOf(experiment.Run(classic))
		if err := sane(ref); err != nil {
			return fmt.Errorf("classic run of %s: %w", scenarioKey(s), err)
		}
		w.want = append(w.want, &ref)
	}
	return nil
}

func (w *scenarioWorkload) op(tr *layers) []opRecord {
	i := w.next % len(w.ss)
	w.next++
	s := w.ss[i]
	var reg *metrics.Registry
	if tr != nil {
		reg = metrics.NewRegistry()
		s.Metrics = reg
		s.Obs = obs.NewTrace("perfbench", nil)
		s.ObsTID = s.Obs.NextTID()
	}
	t0 := time.Now()
	r := experiment.Run(s)
	wall := time.Since(t0)
	err := w.verify(i, refOf(r))
	if tr != nil && err == nil {
		tr.observeSim(readSeries(reg.Gather()), wall.Seconds())
	}
	return []opRecord{{kind: "scenario", input: scenarioKey(s), wall: wall, err: err}}
}

func (w *scenarioWorkload) verify(i int, got refResult) error {
	key := scenarioKey(w.ss[i])
	if err := sane(got); err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if err := w.refs.check(key, got); err != nil {
		return err
	}
	if w.want[i] == nil {
		w.want[i] = &got
		return nil
	}
	if err := w.want[i].diff(got); err != nil {
		if w.ss[i].Shards > 1 {
			return fmt.Errorf("%s differs from its classic single-engine run: %w", key, err)
		}
		return fmt.Errorf("%s differs from the run's first op: %w", key, err)
	}
	return nil
}

func (w *scenarioWorkload) close() {}
