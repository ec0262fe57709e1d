// Quickstart: the paper's headline result in ~60 lines.
//
// A Jacobi2D solver over-decomposed into 128 chares runs on the 4 cores
// of one simulated node while a 2-core Wave2D job interferes with two of
// them. Without load balancing the tightly coupled solver pays roughly
// the full slowdown of its most-interfered core; with the paper's
// interference-aware RefineLB, the runtime migrates objects away from
// the interfered cores and recovers most of the loss.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"cloudlb/internal/apps"
	"cloudlb/internal/charm"
	"cloudlb/internal/core"
	"cloudlb/internal/interfere"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

func run(strategy core.Strategy, withInterference bool) (wall float64, migrations int) {
	sh := sim.NewShards(1, 0)
	mach := machine.New(sh, machine.Config{Nodes: 1, CoresPerNode: 4, CoreSpeed: 1})
	net := xnet.New(mach, xnet.DefaultConfig())

	rts := charm.NewRTS(charm.Config{
		Machine: mach, Net: net, Cores: []int{0, 1, 2, 3},
		Strategy: strategy, Name: "jacobi",
	})
	apps.NewStencilApp(rts, apps.StencilConfig{
		Array: "jacobi", GridW: 256, GridH: 128, CharesX: 16, CharesY: 8,
		Iters: 120, SyncEvery: 10, CostPerCell: 3e-6,
		NewKernel: apps.NewJacobiKernel(256, 128),
	})

	if withInterference {
		bg := interfere.NewWave2DJob(mach, net, interfere.Wave2DJobConfig{
			Cores: []int{2, 3}, Iters: 800,
		})
		bg.Start()
	}

	rts.Start()
	for !rts.Finished() && sh.Now() < 1000 {
		if err := sh.RunUntil(sh.Now() + 1); err != nil {
			panic(err)
		}
	}
	return float64(rts.FinishTime()), rts.Migrations()
}

func main() {
	base, _ := run(nil, false)
	noLB, _ := run(nil, true)
	lb, migrations := run(&core.RefineLB{EpsilonFrac: 0.02}, true)

	penalty := func(w float64) float64 { return (w - base) / base * 100 }
	fmt.Printf("interference-free baseline: %6.2f s\n", base)
	fmt.Printf("interfered, no LB:          %6.2f s  (timing penalty %5.1f%%)\n", noLB, penalty(noLB))
	fmt.Printf("interfered, RefineLB:       %6.2f s  (timing penalty %5.1f%%, %d objects migrated)\n",
		lb, penalty(lb), migrations)
	fmt.Printf("penalty reduction:          %5.1f%%\n", (1-penalty(lb)/penalty(noLB))*100)
}
