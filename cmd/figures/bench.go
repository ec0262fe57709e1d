package main

import (
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"cloudlb/internal/experiment"
	"cloudlb/internal/runner"
	"cloudlb/internal/sim"
)

// The -benchjson mode measures the two layers this tool's runtime is made
// of — the engine's per-event scheduling cost and a whole figure panel —
// and writes the results as machine-readable JSON, so the performance
// trajectory of the repository is recorded alongside the figures
// themselves. The container/heap baseline replicates the engine's
// pre-optimization event queue (interface{} boxing, one allocation per
// scheduled event) for an in-place before/after comparison.

type benchEntry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// GoMaxProcs records the parallelism this entry ran at. The sharded
	// scheduler entries pin it to measure overhead (1) and speedup (>1)
	// separately; every other entry inherits the process-wide value.
	GoMaxProcs   int     `json:"go_max_procs"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

type benchReport struct {
	GoMaxProcs int          `json:"go_max_procs"`
	NumCPU     int          `json:"num_cpu"`
	Workers    int          `json:"scenario_workers"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

// boxedEvent and boxedHeap reproduce the old event queue for the baseline
// benchmark; the live engine no longer contains this code path.
type boxedEvent struct {
	at  sim.Time
	seq uint64
}

type boxedHeap []*boxedEvent

func (h boxedHeap) Len() int { return len(h) }
func (h boxedHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(*boxedEvent)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

const benchQueueDepth = 256

// benchEngineSchedule churns the live engine: schedule one event, fire one
// event, with a steady queue of pending work. One op == one event.
func benchEngineSchedule(b *testing.B) {
	e := sim.NewEngine()
	nop := func() {}
	for i := 0; i < benchQueueDepth; i++ {
		e.At(sim.Time(i), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(sim.Duration(benchQueueDepth), nop)
		e.Step()
	}
}

// benchBoxedBaseline is the same churn against the pre-optimization
// container/heap queue. One op == one event.
func benchBoxedBaseline(b *testing.B) {
	var h boxedHeap
	for i := 0; i < benchQueueDepth; i++ {
		heap.Push(&h, &boxedEvent{at: sim.Time(i * 7 % benchQueueDepth), seq: uint64(i)})
	}
	seq := uint64(benchQueueDepth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := heap.Pop(&h).(*boxedEvent)
		heap.Push(&h, &boxedEvent{at: ev.at + sim.Duration(benchQueueDepth), seq: seq})
		seq++
	}
}

// entry converts one testing.Benchmark result into the report row.
func entry(name string, r testing.BenchmarkResult) benchEntry {
	return benchEntry{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
}

// runBenchJSON runs the benchmark suite and writes the report to path.
func runBenchJSON(path string, workers int) error {
	report := benchReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workers:    workers,
	}

	engine := entry("EngineSchedule", testing.Benchmark(benchEngineSchedule))
	engine.EventsPerSec = 1e9 / engine.NsPerOp
	report.Benchmarks = append(report.Benchmarks, engine)

	boxed := entry("EventHeapBoxedBaseline", testing.Benchmark(benchBoxedBaseline))
	boxed.EventsPerSec = 1e9 / boxed.NsPerOp
	report.Benchmarks = append(report.Benchmarks, boxed)

	// One Wave2D superstep on a live world in steady state, no LB: the
	// hot path the pooling work targets, isolated from startup and LB
	// machinery. The world is built once, outside the timed region.
	steady := experiment.NewSteadyIterBench()
	report.Benchmarks = append(report.Benchmarks, entry("IterationSteadyState",
		testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				steady.StepOnce()
			}
		})))

	// A whole Figure 2(a) panel cell through the scenario pool: throughput
	// here is simulated events per real second, the headline number the
	// parallel runner exists to raise.
	var panelEvents uint64
	pool := &runner.Pool{Workers: workers}
	batch, err := experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4}, Seeds: []int64{1}, Scale: 0.15}.Batch("evaluate")
	if err != nil {
		return err
	}
	panel := entry("Fig2aPanelCell", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, stats, err := pool.RunBatch(context.Background(), batch)
			if err != nil {
				b.Fatal(err)
			}
			panelEvents = stats.Events
		}
	}))
	panel.EventsPerSec = float64(panelEvents) / (panel.NsPerOp / 1e9)
	report.Benchmarks = append(report.Benchmarks, panel)

	// Every figure and ablation bench from the root `go test -bench`
	// suite, via the shared workload set, so allocation and timing
	// regressions in any artifact's pipeline land in the committed record.
	for _, nb := range experiment.FigureBenchmarks() {
		run := nb.Run
		report.Benchmarks = append(report.Benchmarks, entry(nb.Name,
			testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run()
				}
			})))
	}

	// The strategy-planning microbenches: one Plan call per op over the
	// synthetic clustered-hotspot snapshots, up to the Figure 7 cloud
	// allocation — the planning-cost scaling DiffusionLB exists to fix.
	for _, nb := range experiment.StrategyPlanBenchmarks() {
		run := nb.Run
		report.Benchmarks = append(report.Benchmarks, entry(nb.Name,
			testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run()
				}
			})))
	}

	// The sharded-scheduler benches: the same heavyweight scenario at
	// shard counts {1, 8}, the 8-shard one at GOMAXPROCS 1 (pure window
	// overhead, no parallel hardware) and again at GOMAXPROCS >= 8 (the
	// wall-clock speedup the shards exist for). The host's real core
	// count bounds what the latter can show; go_max_procs records what
	// each entry actually ran at.
	report.Benchmarks = append(report.Benchmarks,
		entry("Fig2Mol3DCellShards1", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			nb := experiment.ShardedBench(1)
			for i := 0; i < b.N; i++ {
				nb.Run()
			}
		})))
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		e := entry(fmt.Sprintf("Fig2Mol3DCellShards8P%d", procs), testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			nb := experiment.ShardedBench(8)
			for i := 0; i < b.N; i++ {
				nb.Run()
			}
		}))
		runtime.GOMAXPROCS(prev)
		e.GoMaxProcs = procs
		report.Benchmarks = append(report.Benchmarks, e)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, e := range report.Benchmarks {
		fmt.Fprintf(os.Stderr, "%-24s %12.1f ns/op %6d allocs/op", e.Name, e.NsPerOp, e.AllocsPerOp)
		if e.EventsPerSec > 0 {
			fmt.Fprintf(os.Stderr, " %14.0f events/s", e.EventsPerSec)
		}
		fmt.Fprintln(os.Stderr)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
