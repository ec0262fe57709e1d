package sim

import (
	"strings"
	"testing"

	"cloudlb/internal/metrics"
)

// The single-shard contract: with one shard, Shards is the plain engine.
// Every model layer runs on Shards, so these pin what one shard must
// degenerate to — a windowed scheduler that merely emulates the engine
// breaks each of them.

// TestSingleShardGlobalsInSchedulingOrder: a global and an engine event
// at the same timestamp fire in scheduling order, exactly as two engine
// events do — globals are not deferred behind the engine's events.
func TestSingleShardGlobalsInSchedulingOrder(t *testing.T) {
	s := NewShards(1, 0)
	defer s.Close()
	e := s.Engine(0)
	var order []string
	s.GlobalAt(0.5, func() { order = append(order, "global-1") })
	e.At(0.5, func() { order = append(order, "engine-2") })
	s.GlobalAt(0.5, func() { order = append(order, "global-3") })
	e.At(0.5, func() { order = append(order, "engine-4") })
	if err := s.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, ","), "global-1,engine-2,global-3,engine-4"; got != want {
		t.Fatalf("firing order %s, want %s", got, want)
	}
}

// TestSingleShardGlobalAfterFromEvent: GlobalAfter called inside an
// engine event is relative to that event's time, and Now reads the
// engine clock there.
func TestSingleShardGlobalAfterFromEvent(t *testing.T) {
	s := NewShards(1, 0)
	defer s.Close()
	var nowInEvent, firedAt Time = -1, -1
	s.Engine(0).At(0.3, func() {
		nowInEvent = s.Now()
		s.GlobalAfter(0.25, func() { firedAt = s.Now() })
	})
	if err := s.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if nowInEvent != 0.3 {
		t.Fatalf("Now() inside the event = %v, want 0.3", nowInEvent)
	}
	if firedAt != 0.55 {
		t.Fatalf("GlobalAfter(0.25) from t=0.3 fired at %v, want 0.55", firedAt)
	}
	if got := s.Now(); got != 1 {
		t.Fatalf("Now() = %v after RunUntil(1)", got)
	}
}

// TestSingleShardExecutedCountsGlobalsOnce: a global is one engine event,
// counted once by Executed and once by sim_events_total.
func TestSingleShardExecutedCountsGlobalsOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewShards(1, 0)
	defer s.Close()
	s.SetMetrics(reg)
	s.Engine(0).At(0.1, func() {})
	s.GlobalAt(0.2, func() {})
	s.GlobalAt(0.2, func() { s.GlobalAfter(0.1, func() {}) })
	if err := s.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Executed(); got != 4 {
		t.Fatalf("Executed() = %d, want 4", got)
	}
	if got := s.Engine(0).Executed(); got != 4 {
		t.Fatalf("engine Executed() = %d, want 4", got)
	}
	if got := reg.Counter("sim_events_total", "").Value(); got != 4 {
		t.Fatalf("sim_events_total = %d, want 4", got)
	}
}

// TestSingleShardRunUntilRunsHooks: RunUntil is the engine run followed
// by the barrier hooks — they run exactly once per call, after the engine
// has reached the target, however many events fired on the way.
func TestSingleShardRunUntilRunsHooks(t *testing.T) {
	s := NewShards(1, 0)
	defer s.Close()
	var at []Time
	s.OnBarrier(func() { at = append(at, s.Now()) })
	for _, ev := range []Time{0.1, 0.2, 0.3, 0.4, 1.5} {
		s.Engine(0).At(ev, func() {})
	}
	targets := []Time{0.5, 0.5, 2}
	for i, target := range targets {
		if err := s.RunUntil(target); err != nil {
			t.Fatal(err)
		}
		if len(at) != i+1 || at[i] != target {
			t.Fatalf("after RunUntil(%v): hook observations %v", target, at)
		}
	}
}

// TestSingleShardZeroLookahead: one shard needs no lookahead, while
// several still do (TestNewShardsValidation).
func TestSingleShardZeroLookahead(t *testing.T) {
	s := NewShards(1, 0)
	defer s.Close()
	if s.Concurrent() {
		t.Fatal("one shard reports Concurrent")
	}
	fired := false
	s.Engine(0).At(0.1, func() { fired = true })
	if err := s.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event did not fire")
	}
	if m := NewShards(2, 0.05); !m.Concurrent() {
		t.Fatal("two shards do not report Concurrent")
	}
}

// TestSingleShardMetricSeries: one shard registers exactly the engine's
// series, with the engine's help text, and no per-shard series.
func TestSingleShardMetricSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewShards(1, 0)
	defer s.Close()
	s.SetMetrics(reg)
	s.Engine(0).At(0.1, func() {})
	if err := s.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	help := map[string]string{}
	for _, series := range reg.Gather().Series {
		help[series.Name] = series.Help
	}
	want := map[string]string{
		"sim_events_total":         "Events dispatched by the simulation engine.",
		"sim_event_heap_depth_max": "High-water mark of the pending-event heap.",
	}
	if len(help) != len(want) {
		t.Fatalf("series %v, want exactly %v", help, want)
	}
	for name, h := range want {
		if help[name] != h {
			t.Fatalf("series %s help %q, want %q", name, help[name], h)
		}
	}
}
