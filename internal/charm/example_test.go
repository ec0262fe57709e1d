package charm_test

import (
	"fmt"

	"cloudlb/internal/charm"
	"cloudlb/internal/core"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

// counter is a minimal chare: it burns CPU for a few self-driven steps
// and reports completion.
type counter struct {
	steps int
}

func (c *counter) PackSize() int { return 64 }

func (c *counter) Recv(ctx *charm.Ctx, data interface{}) float64 {
	switch data.(type) {
	case charm.Start, step:
		c.steps--
		if c.steps <= 0 {
			ctx.Done()
			return 0.01
		}
		ctx.Send(ctx.Self(), step{}, 16)
		return 0.01
	}
	return 0
}

type step struct{}

// A complete runtime in miniature: one simulated node, four chares on two
// cores, the paper's RefineLB attached (idle here — the load is already
// balanced).
func Example() {
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	mach := machine.New(sh, machine.Config{Nodes: 1, CoresPerNode: 2, CoreSpeed: 1})
	net := xnet.New(mach, xnet.DefaultConfig())

	rts := charm.NewRTS(charm.Config{
		Machine: mach, Net: net, Cores: []int{0, 1},
		Strategy: &core.RefineLB{EpsilonFrac: 0.05},
	})
	rts.NewArray("count", 4, func(int) charm.Chare { return &counter{steps: 10} })
	rts.Start()
	if err := eng.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("finished=%v migrations=%d\n", rts.Finished(), rts.Migrations())
	// Output: finished=true migrations=0
}
