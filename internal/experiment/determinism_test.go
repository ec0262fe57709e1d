package experiment

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"cloudlb/internal/charm"
	"cloudlb/internal/metrics"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
	"cloudlb/internal/xnet"
)

// The sharded scheduler's contract is byte-identical results at any shard
// count: sharding must be a pure wall-clock optimization. These tests pin
// that contract on a mid-size Wave2D run with load balancing and the
// interfering background job — LB steps exercise the window-aligned
// sequential sections, the background job the cross-shard traffic.

// detRun executes the reference scenario at the given shard count and
// returns its Result, a comparable metric snapshot, and a hash of the
// trace timeline.
func detRun(t *testing.T, shards int) (Result, map[string]float64, uint64) {
	t.Helper()
	rec := trace.NewRecorder()
	reg := metrics.NewRegistry()
	res := Run(Scenario{
		App: Wave2D, Cores: 32, Strategy: Refine, BG: BGWave2D,
		Seed: 7, Scale: 0.1, Shards: shards,
		Trace: rec, Metrics: reg,
	})
	return res, metricValues(reg), traceHash(rec)
}

// metricValues flattens a registry into name|labels -> value, dropping
// series that legitimately differ across schedulers:
//
//   - sim_event_heap_depth_max: the global heap splits into per-shard
//     heaps, so the high-water mark shrinks with the shard count.
//   - sim_shard_*: per-shard occupancy and wall-clock barrier waits.
//   - charm_messages_pooled_total: envelopes are pooled per shard (taken
//     on the sending shard, released on the delivering one), so reuse hit
//     rates depend on the partition.
//   - charm_lb_strategy_wall_seconds_total: host wall-clock time.
//
// xnet_link_busy_seconds is compared exactly: the network accumulates
// NIC busy time per source node (single writer, shard-invariant addition
// order) and publishes a fixed-shape pairwise reduction, so the float is
// bit-identical at any shard count.
func metricValues(reg *metrics.Registry) map[string]float64 {
	vals := make(map[string]float64)
	for _, s := range reg.Gather().Series {
		if s.Name == "sim_event_heap_depth_max" ||
			s.Name == "charm_messages_pooled_total" ||
			s.Name == "charm_lb_strategy_wall_seconds_total" ||
			strings.HasPrefix(s.Name, "sim_shard_") {
			continue
		}
		k := s.Name
		for _, l := range s.Labels {
			k += "|" + l.Name + "=" + l.Value
		}
		if s.Kind == "histogram" {
			vals[k+"|sum"] = s.Sum
			vals[k+"|count"] = float64(s.Count)
			continue
		}
		vals[k] = s.Value
	}
	return vals
}

// traceHash digests the sorted timeline. Segments() sorts by (core,
// start) with insertion order breaking ties, and each core's segments are
// appended by exactly one shard in virtual-time order, so equal runs hash
// equal regardless of shard interleaving.
func traceHash(rec *trace.Recorder) uint64 {
	h := fnv.New64a()
	for _, seg := range rec.Segments() {
		fmt.Fprintf(h, "%d|%d|%x|%x|%s\n", seg.Core, seg.Kind,
			float64(seg.Start), float64(seg.End), seg.Label)
	}
	return h.Sum64()
}

// TestShardedDeterminism asserts that every shard count, at every
// parallelism level, reproduces the one-shard run bit for bit:
// identical Result, identical comparable metrics, identical trace.
func TestShardedDeterminism(t *testing.T) {
	base, baseVals, baseHash := detRun(t, 1)
	for _, gmp := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(gmp)
		for _, n := range []int{2, 4, 8} {
			res, vals, hash := detRun(t, n)
			name := fmt.Sprintf("shards=%d/GOMAXPROCS=%d", n, gmp)
			if res != base {
				t.Errorf("%s: Result diverged:\n got %+v\nwant %+v", name, res, base)
			}
			if hash != baseHash {
				t.Errorf("%s: trace hash %x, want %x", name, hash, baseHash)
			}
			for k, want := range baseVals {
				if got, ok := vals[k]; !ok || got != want {
					t.Errorf("%s: metric %s = %v, want %v", name, k, vals[k], want)
				}
			}
			for k := range vals {
				if _, ok := baseVals[k]; !ok {
					t.Errorf("%s: unexpected extra metric %s", name, k)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestShardedDeterminismLossyNet extends the contract to the unreliable
// network: seeded drops, retransmits and a straggler node must reproduce
// bit for bit at every shard count — the drop lottery is a pure hash of
// per-pair sequence numbers owned by the sending shard, so neither the
// partition nor goroutine interleaving can change which transmissions
// are lost.
func TestShardedDeterminismLossyNet(t *testing.T) {
	lossy := func(shards int) (Result, map[string]float64, uint64) {
		rec := trace.NewRecorder()
		reg := metrics.NewRegistry()
		res := Run(Scenario{
			App: Wave2D, Cores: 32, Strategy: Refine, BG: BGWave2D,
			Seed: 7, Scale: 0.1, Shards: shards,
			Net: xnet.Config{
				DropPct: 2, Seed: 9,
				StragglerNodes: []int{1}, StragglerFactor: 4,
			},
			Trace: rec, Metrics: reg,
		})
		return res, metricValues(reg), traceHash(rec)
	}
	base, baseVals, baseHash := lossy(1)
	if base.NetDrops == 0 {
		t.Fatal("lossy reference run lost nothing; the matrix would prove nothing")
	}
	for _, n := range []int{2, 4, 8} {
		res, vals, hash := lossy(n)
		name := fmt.Sprintf("shards=%d", n)
		if res != base {
			t.Errorf("%s: Result diverged:\n got %+v\nwant %+v", name, res, base)
		}
		if hash != baseHash {
			t.Errorf("%s: trace hash %x, want %x", name, hash, baseHash)
		}
		for k, want := range baseVals {
			if got, ok := vals[k]; !ok || got != want {
				t.Errorf("%s: metric %s = %v, want %v", name, k, vals[k], want)
			}
		}
		for k := range vals {
			if _, ok := baseVals[k]; !ok {
				t.Errorf("%s: unexpected extra metric %s", name, k)
			}
		}
	}
}

// TestShardsAutoResolve pins the -shards knob semantics.
func TestShardsAutoResolve(t *testing.T) {
	cases := []struct{ in, nodes, want int }{
		{0, 8, 1}, {1, 8, 1}, {2, 8, 2}, {8, 8, 8}, {64, 8, 8},
	}
	for _, c := range cases {
		if got := resolveShards(c.in, c.nodes); got != c.want {
			t.Errorf("resolveShards(%d, %d) = %d, want %d", c.in, c.nodes, got, c.want)
		}
	}
	auto := resolveShards(-1, 8)
	want := runtime.GOMAXPROCS(0)
	if want > 8 {
		want = 8
	}
	if auto != want {
		t.Errorf("resolveShards(-1, 8) = %d, want %d", auto, want)
	}
}

// ringChare circulates messages around the full testbed forever, holding
// the runtime stack (engine, OS scheduler, NIC queues, charm messaging)
// in steady state for as long as a measurement needs.
type ringChare struct{ next charm.ChareID }

func (c *ringChare) PackSize() int { return 64 }
func (c *ringChare) Recv(ctx *charm.Ctx, data interface{}) float64 {
	ctx.Send(c.next, struct{}{}, 256)
	return 2e-6
}

// TestSingleShardScenarioSteadyStateAllocFree is the allocation gate for
// the default one-shard scheduler path (-shards 1): once the pools are
// primed, driving the runtime stack forward through Shards.RunUntil over
// the full testbed — cross-node messages, NIC serialization, per-shard
// message pools, in-flight accounting and the barrier hooks included —
// must not allocate. Application kernels own their payload allocations
// and are deliberately outside the gate.
func TestSingleShardScenarioSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	sh := sim.NewShards(1, 0)
	mach := testbed(sh, testbedNodes, 0, nil)
	net := xnet.New(mach, xnet.DefaultConfig())
	cores := make([]int, testbedCores)
	for i := range cores {
		cores[i] = i
	}
	rts := charm.NewRTS(charm.Config{
		Machine: mach, Net: net, Cores: cores,
		Placement: charm.PlaceBlock,
	})
	n := 2 * testbedCores
	rts.NewArray("ring", n, func(i int) charm.Chare {
		return &ringChare{next: charm.ChareID{Array: "ring", Index: (i + 1) % n}}
	})
	rts.Start()
	if err := sh.RunUntil(0.5); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := sh.RunUntil(sh.Now() + 0.01); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state runtime stack: %.2f allocs per 10ms window, want 0", avg)
	}
}

// TestStencilSteadyStateAllocFree is the allocation gate for the stencil
// superstep: once the world is warm, one Wave2D iteration over all 32
// chares — kernel steps, ghost-edge exchange out of the chares' edge
// rings, message dispatch and thread scheduling — must not allocate.
func TestStencilSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	w := NewSteadyIterBench()
	if avg := testing.AllocsPerRun(50, w.StepOnce); avg != 0 {
		t.Errorf("steady-state stencil superstep: %.2f allocs, want 0", avg)
	}
}
