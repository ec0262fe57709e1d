// AMPI: an MPI-style program benefiting from migratable ranks.
//
// Sixty-four ranks run a synthetic SPMD kernel (compute, exchange halos with
// ring neighbors, AllReduce a residual) over four cores, while an
// interfering job burns one core. The ranks call MigrateSync every few
// iterations; with RefineLB the runtime migrates user-level threads away
// from the interfered core — the paper's story for existing MPI codes.
//
//	go run ./examples/ampi
package main

import (
	"fmt"

	"cloudlb/internal/ampi"
	"cloudlb/internal/charm"
	"cloudlb/internal/core"
	"cloudlb/internal/interfere"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

func main() {
	scenario := func(strategy core.Strategy, withHog bool) float64 {
		sh := sim.NewShards(1, 0)
		mach := machine.New(sh, machine.Config{Nodes: 1, CoresPerNode: 4, CoreSpeed: 1})
		net := xnet.New(mach, xnet.DefaultConfig())
		rts := charm.NewRTS(charm.Config{
			Machine: mach, Net: net, Cores: []int{0, 1, 2, 3},
			Strategy: strategy, Name: "ampi",
		})
		if withHog {
			interfere.StartHog(mach, interfere.HogConfig{Core: 3, Start: 0.2})
		}

		const ranks = 64
		ampi.New(rts, "ring", ranks, func(r *ampi.Rank) {
			left := (r.Rank() + ranks - 1) % ranks
			right := (r.Rank() + 1) % ranks
			val := float64(r.Rank())
			for iter := 0; iter < 50; iter++ {
				r.Charge(0.002) // local kernel
				r.Send(left, val, 4096)
				r.Send(right, val, 4096)
				a := r.Recv(left).(float64)
				b := r.Recv(right).(float64)
				val = (a + b + val) / 3
				if iter%10 == 9 {
					r.AllReduce(val, charm.ReduceMax)
					r.MigrateSync()
				}
			}
		})
		rts.Start()
		for !rts.Finished() && sh.Now() < 200 {
			if err := sh.RunUntil(sh.Now() + 1); err != nil {
				panic(err)
			}
		}
		return float64(rts.FinishTime())
	}

	base := scenario(nil, false)
	noLB := scenario(nil, true)
	lb := scenario(&core.RefineLB{EpsilonFrac: 0.05}, true)

	fmt.Printf("AMPI ring, 64 migratable ranks on 4 cores, hog on core 3:\n")
	fmt.Printf("  interference-free: %6.2f s\n", base)
	fmt.Printf("  no LB:             %6.2f s  (+%.0f%%)\n", noLB, (noLB-base)/base*100)
	fmt.Printf("  RefineLB:          %6.2f s  (+%.0f%%)\n", lb, (lb-base)/base*100)
}
