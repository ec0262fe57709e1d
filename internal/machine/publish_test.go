package machine

import (
	"testing"

	"cloudlb/internal/metrics"
	"cloudlb/internal/sim"
)

// TestPublishMetrics checks the explicit publish path: gauges hold
// nothing until PublishMetrics runs, then mirror ProcStat, and a Gather
// never mutates scheduler state (it only reads the atomics).
func TestPublishMetrics(t *testing.T) {
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	reg := metrics.NewRegistry()
	m := New(sh, Config{Nodes: 1, CoresPerNode: 2, CoreSpeed: 1, Metrics: reg})
	th := m.NewThread("a", m.Core(0), 1)
	th.Run(2, func() {})
	if err := eng.RunUntil(5); err != nil {
		t.Fatal(err)
	}

	find := func(name, core string) (float64, bool) {
		for _, s := range reg.Gather().Series {
			if s.Name != name {
				continue
			}
			for _, l := range s.Labels {
				if l.Name == "core" && l.Value == core {
					return s.Value, true
				}
			}
		}
		return 0, false
	}

	// Before the publish, the gauges exist but hold zero — Gather alone
	// must not pull scheduler state.
	if v, ok := find("machine_core_busy_seconds", "0"); !ok || v != 0 {
		t.Fatalf("pre-publish busy gauge = %v/%v, want 0/registered", v, ok)
	}
	m.PublishMetrics()
	if v, ok := find("machine_core_busy_seconds", "0"); !ok || v != 2 {
		t.Fatalf("busy gauge = %v/%v, want 2", v, ok)
	}
	if v, ok := find("machine_core_idle_seconds", "0"); !ok || v != 3 {
		t.Fatalf("idle gauge = %v/%v, want 3", v, ok)
	}
	if v, ok := find("machine_core_idle_seconds", "1"); !ok || v != 5 {
		t.Fatalf("core 1 idle gauge = %v/%v, want 5", v, ok)
	}
}

// TestPublishMetricsDisabled: without Config.Metrics the call is a no-op.
func TestPublishMetricsDisabled(t *testing.T) {
	eng, m := newTestMachine(1, 1)
	if err := eng.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, m.PublishMetrics); avg != 0 {
		t.Fatalf("disabled PublishMetrics allocates %v per call", avg)
	}
}
