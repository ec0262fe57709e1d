package charm

import (
	"fmt"
	"testing"

	"cloudlb/internal/core"
	"cloudlb/internal/lb"
)

// pingChare bounces a message between two chares b.N times, then both
// sides shut down via a stop message.
type pingChare struct {
	remaining *int
	peer      ChareID
	finished  bool
}

type pingStop struct{}

func (c *pingChare) PackSize() int { return 64 }
func (c *pingChare) Recv(ctx *Ctx, data interface{}) float64 {
	switch data.(type) {
	case Start:
		if ctx.Self().Index == 0 {
			ctx.Send(c.peer, tick{}, 64)
		}
		return 0
	case tick:
		if *c.remaining <= 0 {
			if !c.finished {
				c.finished = true
				ctx.Done()
				ctx.Send(c.peer, pingStop{}, 16)
			}
			return 0
		}
		*c.remaining--
		ctx.Send(c.peer, tick{}, 64)
		return 0
	case pingStop:
		if !c.finished {
			c.finished = true
			ctx.Done()
		}
		return 0
	}
	return 0
}

// BenchmarkMessageRoundtrip measures runtime messaging overhead: one
// inter-node hop per operation.
func BenchmarkMessageRoundtrip(b *testing.B) {
	eng, m, n := testWorld(2, 1)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	remaining := b.N
	r.NewArray("p", 2, func(i int) Chare {
		return &pingChare{remaining: &remaining, peer: ChareID{Array: "p", Index: 1 - i}}
	})
	b.ResetTimer()
	r.Start()
	for !r.Finished() {
		if !eng.Step() {
			b.Fatal("engine drained before completion")
		}
	}
}

// BenchmarkLBStep measures the cost of one full AtSync load balancing
// step (gather, plan, migrate, resume) with 256 chares on 8 PEs.
func BenchmarkLBStep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, m, n := testWorld(2, 4)
		r := NewRTS(Config{
			Machine: m, Net: n, Cores: allCores(m),
			Strategy: &core.RefineLB{EpsilonFrac: 0.02},
		})
		r.NewArray("w", 256, func(int) Chare { return &iterChare{iters: 10, cost: 0.001, syncEvery: 5} })
		r.Start()
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLBStepHierarchical is BenchmarkLBStep with the tree protocol,
// for comparing gather/scatter overhead shapes.
func BenchmarkLBStepHierarchical(b *testing.B) {
	var lbWall float64
	for i := 0; i < b.N; i++ {
		eng, m, n := testWorld(2, 4)
		r := NewRTS(Config{
			Machine: m, Net: n, Cores: allCores(m),
			Strategy:       &core.RefineLB{EpsilonFrac: 0.02},
			HierarchicalLB: true,
			ReductionArity: 2,
		})
		r.NewArray("w", 256, func(int) Chare { return &iterChare{iters: 10, cost: 0.001, syncEvery: 5} })
		r.Start()
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		lbWall = float64(r.LBWallTime())
	}
	b.ReportMetric(lbWall*1000, "lb_wall_ms")
}

// syncChare calls AtSync from every entry, so each LB step is one entry
// per chare plus the protocol.
type syncChare struct{}

func (*syncChare) PackSize() int { return 256 }
func (*syncChare) Recv(ctx *Ctx, data interface{}) float64 {
	ctx.AtSync()
	return 1e-4
}

// BenchmarkLBStepSync measures one full AtSync → plan → resume step per
// op, 32 chares per PE, for the flat gather (RefineLB) and the
// distributed protocol (DiffusionLB). The runtime's share grows linearly
// in PEs: each readiness or stats arrival answers "all chares synced?"
// from per-PE counters instead of walking every chare.
func BenchmarkLBStepSync(b *testing.B) {
	strategies := []struct {
		name string
		new  func() core.Strategy
	}{
		{"RefineLB", func() core.Strategy { return &core.RefineLB{EpsilonFrac: 0.02} }},
		{"DiffusionLB", func() core.Strategy { return &lb.DiffusionLB{} }},
	}
	for _, st := range strategies {
		for _, pes := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/pes=%d", st.name, pes), func(b *testing.B) {
				eng, m, n := testWorld(pes/8, 8)
				r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m), Strategy: st.new()})
				r.NewArray("w", 32*pes, func(int) Chare { return &syncChare{} })
				r.Start()
				stepTo := func(steps int) {
					for r.LBSteps() < steps {
						if !eng.Step() {
							b.Fatal("engine drained")
						}
					}
				}
				// The first step grows every scratch buffer.
				stepTo(1)
				b.ResetTimer()
				stepTo(1 + b.N)
			})
		}
	}
}
