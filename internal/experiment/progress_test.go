package experiment_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cloudlb/internal/experiment"
	"cloudlb/internal/runner"
)

// fakeProgress counts lifecycle notifications; safe for concurrent use.
// cancel, when set, fires after the first completed scenario.
type fakeProgress struct {
	mu      sync.Mutex
	queued  int
	started int
	done    int
	events  uint64
	cancel  context.CancelFunc
}

func (f *fakeProgress) BatchQueued(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.queued += n
}

func (f *fakeProgress) ScenarioStarted(int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.started++
}

func (f *fakeProgress) ScenarioDone(_ int, _ time.Duration, events uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.done++
	f.events += events
	if f.cancel != nil {
		f.cancel()
	}
}

func (f *fakeProgress) counts() (queued, started, done int, events uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.queued, f.started, f.done, f.events
}

func progressSpec() experiment.Spec {
	return experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4}, Seeds: []int64{1}, Scale: 0.1}
}

// runWithProgress evaluates progressSpec through Spec.Run on a pool of
// the given width and checks that the pool — the one notifier — reports
// every scenario of the batch exactly once.
func runWithProgress(t *testing.T, workers int) {
	t.Helper()
	f := &fakeProgress{}
	pool := &runner.Pool{Workers: workers, Progress: f}
	if _, err := progressSpec().Run(context.Background(), "evaluate", experiment.Options{Executor: pool.Executor()}); err != nil {
		t.Fatal(err)
	}
	batch, err := progressSpec().Batch("evaluate")
	if err != nil {
		t.Fatal(err)
	}
	queued, started, done, events := f.counts()
	if queued != len(batch) || started != queued || done != queued {
		t.Fatalf("queued/started/done = %d/%d/%d, want %d each", queued, started, done, len(batch))
	}
	if events == 0 {
		t.Fatal("no events reported")
	}
}

func TestOptionsProgressSequential(t *testing.T) { runWithProgress(t, 1) }

func TestOptionsProgressParallel(t *testing.T) { runWithProgress(t, 2) }

// TestOptionsMidBatchCancellation cancels from inside the batch, via a
// Progress hook that fires on the first completion: a one-worker pool
// must observe the cancellation at the next scenario boundary and stop,
// leaving the remainder unrun, and Spec.Run must surface the error.
func TestOptionsMidBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := &fakeProgress{cancel: cancel}
	pool := &runner.Pool{Workers: 1, Progress: prog}
	spec := experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4}, Seeds: []int64{1, 2}, Scale: 0.1}
	if _, err := spec.Run(ctx, "evaluate", experiment.Options{Executor: pool.Executor()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, _, done, _ := prog.counts(); done != 1 {
		t.Fatalf("ran %d scenarios, want 1 (cancellation after the first)", done)
	}
}
