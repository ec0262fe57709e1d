package apps

import (
	"testing"

	"cloudlb/internal/charm"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

// kernelBenchCases are the timed block shapes: a 64x64 block on the
// physical boundary, and the 16x16 interior block with all four ghost
// edges that the Fig. 2 testbed steps.
var kernelBenchCases = []struct {
	name  string
	size  int
	edges bool
}{
	{"64x64/boundary", 64, false},
	{"16x16/4edges", 16, true},
}

func benchEdges(n int, present bool) *[numDirs][]float64 {
	var edges [numDirs][]float64
	if present {
		for d := range edges {
			edges[d] = make([]float64, n)
			for i := range edges[d] {
				edges[d][i] = 0.5
			}
		}
	}
	return &edges
}

func BenchmarkJacobiKernelStep(b *testing.B) {
	for _, bc := range kernelBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			k := NewJacobiKernel(4*bc.size, 4*bc.size)(1, 1, bc.size, bc.size, bc.size, bc.size)
			edges := benchEdges(bc.size, bc.edges)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step(edges)
			}
		})
	}
}

func BenchmarkWaveKernelStep(b *testing.B) {
	for _, bc := range kernelBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			k := NewWaveKernel(4*bc.size, 4*bc.size, 0.4)(1, 1, bc.size, bc.size, bc.size, bc.size)
			edges := benchEdges(bc.size, bc.edges)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step(edges)
			}
		})
	}
}

func BenchmarkStencilSimulation(b *testing.B) {
	// End-to-end simulated Wave2D on 4 cores: measures the whole stack
	// (engine, machine, network, runtime, kernels).
	for i := 0; i < b.N; i++ {
		sh := sim.NewShards(1, 0)
		eng := sh.Engine(0)
		m := machine.New(sh, machine.Config{Nodes: 1, CoresPerNode: 4, CoreSpeed: 1})
		n := xnet.New(m, xnet.DefaultConfig())
		rts := charm.NewRTS(charm.Config{Machine: m, Net: n, Cores: []int{0, 1, 2, 3}})
		NewStencilApp(rts, StencilConfig{
			Array: "wave", GridW: 128, GridH: 64, CharesX: 8, CharesY: 4,
			Iters: 30, CostPerCell: 1e-6,
			NewKernel: NewWaveKernel(128, 64, 0.4),
		})
		rts.Start()
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMol3DSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sh := sim.NewShards(1, 0)
		eng := sh.Engine(0)
		m := machine.New(sh, machine.Config{Nodes: 1, CoresPerNode: 4, CoreSpeed: 1})
		n := xnet.New(m, xnet.DefaultConfig())
		rts := charm.NewRTS(charm.Config{Machine: m, Net: n, Cores: []int{0, 1, 2, 3}})
		NewMol3DApp(rts, Mol3DConfig{
			CellsX: 4, CellsY: 4, CellsZ: 1,
			CellSize: 1.0, Particles: 200, ClusterFrac: 0.4,
			Seed: 1, Dt: 1e-3, Iters: 15,
			CostPerPair: 1e-8,
		})
		rts.Start()
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
