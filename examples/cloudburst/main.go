// Cloudburst: the paper's future-work setting, end to end.
//
// A Jacobi2D solver runs on 8 cores of a simulated cloud host while
// tenant VMs arrive and depart as a Poisson process across all of its
// cores ("multiple VMs share CPU resources", paper §VI). The example
// compares noLB against RefineLB and prints the Projections-style time
// profile, where the balancer's reaction to each tenant is visible.
//
//	go run ./examples/cloudburst
package main

import (
	"fmt"
	"os"

	"cloudlb/internal/apps"
	"cloudlb/internal/charm"
	"cloudlb/internal/core"
	"cloudlb/internal/interfere"
	"cloudlb/internal/machine"
	"cloudlb/internal/projections"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
	"cloudlb/internal/xnet"
)

func run(strategy core.Strategy, rec *trace.Recorder) (wall float64, migrations, tenants int) {
	sh := sim.NewShards(1, 0)
	mach := machine.New(sh, machine.Config{Nodes: 2, CoresPerNode: 4, CoreSpeed: 1})
	net := xnet.New(mach, xnet.DefaultConfig())
	cores := []int{0, 1, 2, 3, 4, 5, 6, 7}

	rts := charm.NewRTS(charm.Config{
		Machine: mach, Net: net, Cores: cores,
		Strategy: strategy, Trace: rec, Name: "jacobi",
	})
	apps.NewStencilApp(rts, apps.StencilConfig{
		Array: "jacobi", GridW: 256, GridH: 256, CharesX: 16, CharesY: 16,
		Iters: 250, SyncEvery: 5, CostPerCell: 2e-6,
		NewKernel: apps.NewJacobiKernel(256, 256),
	})
	churn := interfere.StartChurn(mach, interfere.ChurnConfig{
		Cores:             cores,
		ArrivalsPerSecond: 1.5,
		MeanDuration:      1.2,
		MaxConcurrent:     3,
		Seed:              11,
		Trace:             rec,
	})

	rts.Start()
	for !rts.Finished() && sh.Now() < 1000 {
		if err := sh.RunUntil(sh.Now() + 1); err != nil {
			panic(err)
		}
	}
	return float64(rts.FinishTime()), rts.Migrations(), churn.Arrivals()
}

func main() {
	base, _, _ := runQuiet()
	noLB, _, tenantsNo := run(nil, nil)
	rec := trace.NewRecorder()
	lb, migrations, tenantsLB := run(&core.RefineLB{EpsilonFrac: 0.02}, rec)

	fmt.Println("Jacobi2D on an 8-core cloud host with tenant VM churn:")
	fmt.Printf("  quiet host:          %6.2f s\n", base)
	fmt.Printf("  churn, no LB:        %6.2f s  (+%.0f%%, %d tenants)\n", noLB, (noLB-base)/base*100, tenantsNo)
	fmt.Printf("  churn, RefineLB:     %6.2f s  (+%.0f%%, %d tenants, %d migrations)\n\n",
		lb, (lb-base)/base*100, tenantsLB, migrations)

	cores := []int{0, 1, 2, 3, 4, 5, 6, 7}
	projections.Profile(rec, cores, 0, sim.Time(lb), 96).Write(os.Stdout)
	fmt.Printf("imb  |%s|  (per-core task imbalance; spikes mark tenant arrivals)\n",
		projections.Sparkline(scaleImb(projections.Imbalance(rec, cores, 0, sim.Time(lb), 96))))
}

func runQuiet() (float64, int, int) {
	sh := sim.NewShards(1, 0)
	mach := machine.New(sh, machine.Config{Nodes: 2, CoresPerNode: 4, CoreSpeed: 1})
	net := xnet.New(mach, xnet.DefaultConfig())
	rts := charm.NewRTS(charm.Config{
		Machine: mach, Net: net, Cores: []int{0, 1, 2, 3, 4, 5, 6, 7}, Name: "jacobi",
	})
	apps.NewStencilApp(rts, apps.StencilConfig{
		Array: "jacobi", GridW: 256, GridH: 256, CharesX: 16, CharesY: 16,
		Iters: 250, SyncEvery: 5, CostPerCell: 2e-6,
		NewKernel: apps.NewJacobiKernel(256, 256),
	})
	rts.Start()
	for !rts.Finished() && sh.Now() < 1000 {
		if err := sh.RunUntil(sh.Now() + 1); err != nil {
			panic(err)
		}
	}
	return float64(rts.FinishTime()), 0, 0
}

func scaleImb(series []float64) []float64 {
	out := make([]float64, len(series))
	for i, v := range series {
		if v > 1 {
			out[i] = (v - 1) / 7 // 8 cores: worst case 8/1
		}
	}
	return out
}
