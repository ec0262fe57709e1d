package telemetry

import (
	"sync"
	"time"

	"cloudlb/internal/metrics"
)

// RunTracker aggregates fleet progress across every scenario batch of a
// run: totals, in-flight count, event throughput, a per-scenario wall
// histogram and an ETA. It satisfies runner.Progress structurally, so
// runner.Pool feeds it without this package importing the runner. All methods are safe on a nil receiver (the
// disabled state the cmds wire unconditionally) and safe for concurrent
// use from pool workers.
type RunTracker struct {
	mu       sync.Mutex
	start    time.Time
	total    int
	done     int
	inflight int
	events   uint64
	finished bool

	// wall aggregates real seconds per scenario; its own atomics make it
	// safe to snapshot while workers observe.
	wall *metrics.Histogram

	// notify runs (outside mu) after every state change — the telemetry
	// server points it at its SSE broadcast.
	notifyMu sync.Mutex
	notify   func()
}

// NewRunTracker returns a tracker whose clock starts now.
func NewRunTracker() *RunTracker {
	return &RunTracker{start: time.Now(), wall: metrics.NewHistogram(metrics.DefTimeBuckets())}
}

// setNotify installs the state-change hook (nil clears it).
func (t *RunTracker) setNotify(fn func()) {
	if t == nil {
		return
	}
	t.notifyMu.Lock()
	t.notify = fn
	t.notifyMu.Unlock()
}

func (t *RunTracker) changed() {
	t.notifyMu.Lock()
	fn := t.notify
	t.notifyMu.Unlock()
	if fn != nil {
		fn()
	}
}

// BatchQueued adds n scenarios to the fleet total.
func (t *RunTracker) BatchQueued(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total += n
	t.mu.Unlock()
	t.changed()
}

// ScenarioStarted marks one scenario in flight.
func (t *RunTracker) ScenarioStarted(int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.inflight++
	t.mu.Unlock()
	t.changed()
}

// ScenarioDone retires one scenario and accounts its wall time and
// simulation events.
func (t *RunTracker) ScenarioDone(_ int, wall time.Duration, events uint64) {
	if t == nil {
		return
	}
	t.wall.Observe(wall.Seconds())
	t.mu.Lock()
	t.done++
	if t.inflight > 0 {
		t.inflight--
	}
	t.events += events
	t.mu.Unlock()
	t.changed()
}

// Finish marks the run complete (no more batches are coming). Idempotent.
func (t *RunTracker) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	already := t.finished
	t.finished = true
	t.mu.Unlock()
	if !already {
		t.changed()
	}
}

// RunState is the /api/run document: one JSON object describing the
// fleet right now.
type RunState struct {
	ScenariosTotal    int    `json:"scenarios_total"`
	ScenariosDone     int    `json:"scenarios_done"`
	ScenariosInFlight int    `json:"scenarios_in_flight"`
	Events            uint64 `json:"events_total"`
	// ElapsedSeconds is real time since the tracker was created.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// EventsPerSec is the cumulative simulated-event throughput.
	EventsPerSec float64 `json:"events_per_sec"`
	// EtaSeconds extrapolates the remaining scenarios from the mean
	// per-scenario rate so far; 0 until one scenario finishes or once the
	// run is done.
	EtaSeconds float64 `json:"eta_seconds"`
	Finished   bool    `json:"finished"`
	// ScenarioWall is the per-scenario wall-time distribution with
	// estimated p50/p95/p99.
	ScenarioWall metrics.HistogramSnapshot `json:"scenario_wall_seconds"`
}

// State snapshots the fleet. Safe on a nil receiver (zero state).
func (t *RunTracker) State() RunState {
	if t == nil {
		return RunState{}
	}
	t.mu.Lock()
	st := RunState{
		ScenariosTotal:    t.total,
		ScenariosDone:     t.done,
		ScenariosInFlight: t.inflight,
		Events:            t.events,
		ElapsedSeconds:    time.Since(t.start).Seconds(),
		Finished:          t.finished,
	}
	t.mu.Unlock()
	st.ScenarioWall = t.wall.Snapshot()
	if st.ElapsedSeconds > 0 {
		st.EventsPerSec = float64(st.Events) / st.ElapsedSeconds
	}
	if remaining := st.ScenariosTotal - st.ScenariosDone; !st.Finished && st.ScenariosDone > 0 && remaining > 0 {
		st.EtaSeconds = st.ElapsedSeconds / float64(st.ScenariosDone) * float64(remaining)
	}
	return st
}
