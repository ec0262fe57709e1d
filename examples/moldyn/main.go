// Moldyn: strategy shoot-out on an irregular application.
//
// Mol3D — cell-list molecular dynamics with a clustered particle
// distribution — has both application-internal imbalance (dense cells
// cost more) and external interference (a weight-4 background job on two
// cores, modeling the OS preference the paper observed). The example
// runs every load balancing strategy in the repository on the same
// workload and prints wall time, migration count and timing penalty.
//
//	go run ./examples/moldyn
package main

import (
	"fmt"
	"os"

	"cloudlb/internal/apps"
	"cloudlb/internal/charm"
	"cloudlb/internal/core"
	"cloudlb/internal/interfere"
	"cloudlb/internal/lb"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/stats"
	"cloudlb/internal/xnet"
)

func run(strategy core.Strategy, withBG bool) (wall float64, migrations int) {
	sh := sim.NewShards(1, 0)
	mach := machine.New(sh, machine.Config{Nodes: 2, CoresPerNode: 4, CoreSpeed: 1})
	net := xnet.New(mach, xnet.DefaultConfig())

	cores := []int{0, 1, 2, 3, 4, 5, 6, 7}
	rts := charm.NewRTS(charm.Config{
		Machine: mach, Net: net, Cores: cores,
		Strategy:  strategy,
		Placement: charm.PlaceBlock,
		Name:      "mol3d",
	})
	apps.NewMol3DApp(rts, apps.Mol3DConfig{
		CellsX: 16, CellsY: 16, CellsZ: 1,
		CellSize: 1.0, Cutoff: 0.8,
		Particles: 2048, ClusterFrac: 0.3, ClusterSigmaFrac: 0.25,
		Seed: 7, Dt: 5e-4, Epsilon: 0.2,
		Iters: 60, SyncEvery: 10,
		CostPerPair: 3e-6, CostPerParticle: 1e-6,
	})

	if withBG {
		bg := interfere.NewWave2DJob(mach, net, interfere.Wave2DJobConfig{
			Cores: []int{6, 7}, Iters: 2000, Weight: 4,
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
	strategies := []struct {
		name string
		s    core.Strategy
	}{
		{"noLB", nil},
		{"RefineLB (paper)", &core.RefineLB{EpsilonFrac: 0.02}},
		{"RefineInternalLB (ablation)", &lb.RefineInternalLB{Inner: core.RefineLB{EpsilonFrac: 0.02}}},
		{"RefineSwapLB", &lb.RefineSwapLB{Inner: core.RefineLB{EpsilonFrac: 0.02}}},
		{"GreedyLB", lb.GreedyLB{}},
		{"ThresholdLB", &lb.ThresholdLB{ThresholdFrac: 0.2}},
		{"MigrationCostAwareLB", &lb.MigrationCostAwareLB{
			Inner: &core.RefineLB{EpsilonFrac: 0.02}, BytesPerSecond: 1e8,
		}},
	}

	base, _ := run(&core.RefineLB{EpsilonFrac: 0.02}, false)
	fmt.Printf("interference-free RefineLB baseline: %.2f s\n\n", base)

	tab := stats.NewTable("strategy", "wall s", "penalty %", "migrations")
	for _, st := range strategies {
		wall, migs := run(st.s, true)
		tab.AddRow(st.name, wall, stats.TimingPenaltyPct(wall, base), migs)
	}
	tab.Write(os.Stdout)
	fmt.Println("\nRefineLB should beat noLB and the background-blind ablation while")
	fmt.Println("migrating far fewer objects than GreedyLB.")
}
