package machine

import (
	"math"
	"math/rand"
	"testing"

	"cloudlb/internal/sim"
)

// TestGPSFairnessProperty: while several always-runnable threads share a
// core, the CPU each receives over a long window is proportional to its
// weight.
func TestGPSFairnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		sh := sim.NewShards(1, 0)
		eng := sh.Engine(0)
		m := New(sh, Config{Nodes: 1, CoresPerNode: 1, CoreSpeed: 1})
		core := m.Core(0)
		n := 2 + rng.Intn(4)
		weights := make([]float64, n)
		threads := make([]*Thread, n)
		for i := 0; i < n; i++ {
			weights[i] = 0.5 + rng.Float64()*3.5
			threads[i] = m.NewThread("t", core, weights[i])
			th := threads[i]
			var loop func()
			loop = func() { th.Run(0.25+rng.Float64(), loop) } // always runnable
			loop()
		}
		const horizon = 200.0
		if err := eng.RunUntil(sim.Time(horizon)); err != nil {
			t.Fatal(err)
		}
		totalW := 0.0
		for _, w := range weights {
			totalW += w
		}
		for i, th := range threads {
			want := horizon * weights[i] / totalW
			got := float64(th.CPUTime())
			// Burst-boundary effects allow small deviations only.
			if math.Abs(got-want) > 0.02*horizon {
				t.Fatalf("trial %d: thread %d (w=%.2f) got %.2f cpu, want %.2f",
					trial, i, weights[i], got, want)
			}
		}
	}
}

// TestWorkConservingProperty: a core with at least one runnable thread
// delivers CPU at full speed; total delivered CPU equals busy time.
func TestWorkConservingProperty(t *testing.T) {
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := New(sh, Config{Nodes: 1, CoresPerNode: 1, CoreSpeed: 1})
	core := m.Core(0)
	// One heavy and one intermittent thread.
	a := m.NewThread("a", core, 1)
	var la func()
	la = func() { a.Run(1, la) }
	la()
	b := m.NewThread("b", core, 5)
	var lb func()
	lb = func() { b.Run(0.1, func() { eng.After(0.4, lb) }) }
	lb()
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	busy, idle := core.ProcStat()
	if idle > 1e-9 {
		t.Fatalf("idle %v despite an always-runnable thread", idle)
	}
	sum := float64(a.CPUTime() + b.CPUTime())
	if math.Abs(sum-float64(busy)) > 1e-6 {
		t.Fatalf("delivered %v over %v busy", sum, busy)
	}
}
