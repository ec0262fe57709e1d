package experiment

import (
	"context"

	"cloudlb/internal/metrics"
)

// Executor runs a batch of scenarios and returns their results in batch
// order: results[i] must be exactly Run(batch[i]). Every Spec method
// describes its whole measurement matrix as one batch and leaves the
// execution policy — sequential on the calling goroutine, or fanned out
// over runner.Pool — to the executor, so the assembled figures are
// identical either way.
type Executor func(ctx context.Context, batch []Scenario) ([]Result, error)

// RunAll is the sequential Executor: scenarios run in order on the calling
// goroutine, stopping early if ctx is cancelled.
func RunAll(ctx context.Context, batch []Scenario) ([]Result, error) {
	out := make([]Result, len(batch))
	for i, s := range batch {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = Run(s)
	}
	return out, nil
}

// Options chooses the executor a Spec method's batch runs on and the
// telemetry its scenarios carry. The zero value runs sequentially
// (RunAll) with instrumentation disabled.
type Options struct {
	// Executor dispatches the batch; nil selects RunAll. runner.Pool's
	// Executor is the parallel one, and the one that reports progress.
	Executor Executor
	// Metrics, when non-nil, is attached to every scenario in the batch
	// (see Scenario.Metrics); the runs accumulate into shared series.
	Metrics *metrics.Registry
	// LBTimeline, when non-nil, is attached to every scenario in the
	// batch (see Scenario.LBTimeline).
	LBTimeline *metrics.LBTimeline
}

// run attaches the options' telemetry to every scenario that carries
// none and dispatches the batch on the executor.
func (o Options) run(ctx context.Context, batch []Scenario) ([]Result, error) {
	for i := range batch {
		if batch[i].Metrics == nil {
			batch[i].Metrics = o.Metrics
		}
		if batch[i].LBTimeline == nil {
			batch[i].LBTimeline = o.LBTimeline
		}
	}
	exec := o.Executor
	if exec == nil {
		exec = RunAll
	}
	return exec(ctx, batch)
}
