package experiment

import (
	"context"
	"errors"
	"testing"

	"cloudlb/internal/metrics"
	"cloudlb/internal/xnet"
)

// TestScenarioNetLookaheadConsistency is the regression test for the
// config/lookahead desync: Run must derive the sharded scheduler's
// lookahead from the same resolved network config the Network is built
// from. Before the consolidation, a scenario network with any latency
// below the hardcoded default would have run shards with a too-large
// lookahead — silently non-conservative windows. xnet.New now panics on
// that mismatch, so simply completing these runs proves consistency.
func TestScenarioNetLookaheadConsistency(t *testing.T) {
	for _, net := range []xnet.Config{
		{InterNodeLatency: 10e-6},                             // 5x faster than the default lookahead
		{InterNodeLatency: 200e-6},                            // slower than the default
		{Links: []xnet.Link{{Src: 0, Dst: 1, Latency: 5e-6}}}, // one fast link drags the minimum down
		{StragglerNodes: []int{1}, StragglerFactor: 8},        // stragglers only raise latencies
	} {
		r := Run(Scenario{
			App: Wave2D, Cores: 8, Strategy: NoLB,
			Seed: 1, Scale: quickScale, Shards: 2, Net: net,
		})
		if r.AppWall <= 0 {
			t.Errorf("Net %+v: bad wall %v", net, r.AppWall)
		}
	}
}

// TestZeroNetMatchesExplicitDefault pins Resolved's contract at the
// scenario level: an unset Net and a spelled-out DefaultConfig are the
// same network, bit for bit.
func TestZeroNetMatchesExplicitDefault(t *testing.T) {
	s := Scenario{App: Jacobi2D, Cores: 8, Strategy: Refine, BG: BGWave2D, Seed: 3, Scale: quickScale}
	base := Run(s)
	s.Net = xnet.DefaultConfig()
	if got := Run(s); got != base {
		t.Fatalf("explicit DefaultConfig diverged from zero Net:\n got %+v\nwant %+v", got, base)
	}
}

// TestLossyNetResultCounters checks the loss plumbing end to end: a lossy
// scenario reports its drops and retransmits both in the Result and in
// the metrics registry, and the NIC busy-time series moves.
func TestLossyNetResultCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	r := Run(Scenario{
		App: Wave2D, Cores: 8, Strategy: Refine, BG: BGWave2D,
		Seed: 5, Scale: quickScale, Metrics: reg,
		Net: xnet.Config{DropPct: 5, Seed: 11},
	})
	if r.NetDrops == 0 || r.NetRetransmits != r.NetDrops {
		t.Fatalf("drops/retransmits = %d/%d, want equal and > 0", r.NetDrops, r.NetRetransmits)
	}
	vals := make(map[string]float64)
	for _, s := range reg.Gather().Series {
		vals[s.Name] = s.Value
	}
	if vals["xnet_drops_total"] != float64(r.NetDrops) {
		t.Errorf("xnet_drops_total = %v, want %d", vals["xnet_drops_total"], r.NetDrops)
	}
	if vals["xnet_retransmits_total"] != float64(r.NetRetransmits) {
		t.Errorf("xnet_retransmits_total = %v, want %d", vals["xnet_retransmits_total"], r.NetRetransmits)
	}
	if vals["xnet_link_busy_seconds"] <= 0 {
		t.Errorf("xnet_link_busy_seconds = %v, want > 0", vals["xnet_link_busy_seconds"])
	}

	reliable := Run(Scenario{
		App: Wave2D, Cores: 8, Strategy: Refine, BG: BGWave2D,
		Seed: 5, Scale: quickScale,
	})
	if reliable.NetDrops != 0 || reliable.NetRetransmits != 0 {
		t.Fatalf("reliable run reported drops: %+v", reliable)
	}
}

// cancelSpec is a small two-scenario batch for the cancellation tests.
func cancelSpec() Spec {
	return Spec{App: Jacobi2D, Cores: []int{4}, Seeds: []int64{1, 2}, Scale: 0.1}
}

// TestOptionsCancellation drives a pre-cancelled context through both
// executors Options can name in-package — the default (RunAll) and an
// explicit one — and requires each to stop before running a scenario and
// surface the context error. runner.Pool, the parallel executor, is
// covered by TestOptionsMidBatchCancellation and runner's own tests.
func TestOptionsCancellation(t *testing.T) {
	paths := []struct {
		name string
		opts Options
	}{
		{"sequential", Options{}},
		{"executor", Options{Executor: RunAll}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			out, err := cancelSpec().Run(ctx, "evaluate", p.opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if out.Rows != nil {
				t.Fatalf("results returned despite cancellation: %v", out.Rows)
			}
		})
	}
}
