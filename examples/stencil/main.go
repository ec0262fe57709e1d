// Stencil: dynamic interference and adaptation, rendered as timelines.
//
// Wave2D runs on 4 cores under RefineLB. A CPU-bound interfering job
// appears on core 1, disappears, then another appears on core 3 — the
// scenario of the paper's Figure 3. The example prints ASCII timelines
// of the five phases, showing the balancer shedding the interfered core
// and repopulating it once the interference ends.
//
//	go run ./examples/stencil
package main

import (
	"fmt"
	"os"

	"cloudlb/internal/apps"
	"cloudlb/internal/charm"
	"cloudlb/internal/core"
	"cloudlb/internal/interfere"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
	"cloudlb/internal/xnet"
)

func main() {
	sh := sim.NewShards(1, 0)
	mach := machine.New(sh, machine.Config{Nodes: 1, CoresPerNode: 4, CoreSpeed: 1})
	net := xnet.New(mach, xnet.DefaultConfig())
	rec := trace.NewRecorder()

	rts := charm.NewRTS(charm.Config{
		Machine: mach, Net: net, Cores: []int{0, 1, 2, 3},
		Strategy: &core.RefineLB{EpsilonFrac: 0.02},
		Trace:    rec, Name: "wave",
	})
	apps.NewStencilApp(rts, apps.StencilConfig{
		Array: "wave", GridW: 256, GridH: 128, CharesX: 16, CharesY: 8,
		Iters: 200, SyncEvery: 5, CostPerCell: 3e-6,
		NewKernel: apps.NewWaveKernel(256, 128, 0.4),
	})

	// Interference timeline: core 1 from 1.0s to 3.0s, core 3 from 4.5s
	// to 6.5s.
	interfere.StartHog(mach, interfere.HogConfig{Core: 1, Start: 1.0, Stop: 3.0, Trace: rec, Name: "vm-a"})
	interfere.StartHog(mach, interfere.HogConfig{Core: 3, Start: 4.5, Stop: 6.5, Trace: rec, Name: "vm-b"})

	rts.Start()
	for !rts.Finished() && sh.Now() < 100 {
		if err := sh.RunUntil(sh.Now() + 1); err != nil {
			panic(err)
		}
	}
	finish := rts.FinishTime()
	fmt.Printf("Wave2D finished at %.2fs with %d migrations over %d LB steps\n\n",
		float64(finish), rts.Migrations(), rts.LBSteps())

	phases := []struct {
		label    string
		from, to sim.Time
	}{
		{"quiet start", 0.2, 1.0},
		{"vm-a lands on core 1", 1.0, 1.8},
		{"rebalanced around vm-a", 2.2, 3.0},
		{"vm-a gone, work returns to core 1", 3.2, 4.4},
		{"vm-b lands on core 3, rebalanced", 5.5, 6.5},
	}
	for _, p := range phases {
		if p.to > finish {
			break
		}
		fmt.Printf("--- %s ---\n", p.label)
		rec.RenderASCII(os.Stdout, []int{0, 1, 2, 3}, p.from, p.to, 96)
		fmt.Println()
	}
}
