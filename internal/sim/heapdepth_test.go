package sim

import (
	"math/rand"
	"testing"

	"cloudlb/internal/metrics"
)

// branching schedules a seeded branching process on one engine: every
// event records the heap depth it was popped from, then spawns up to three
// children until the engine's budget is spent. With cross set, every third
// child lands on the other shard through the coordinator. Nothing is ever
// cancelled, so the depth an event was popped from is exactly the pending
// count it sees plus itself.
type branching struct {
	engines []*Engine
	cross   func(src, dst int, at Time, fn func())
	rng     []*rand.Rand
	budget  []int
	deepest []int // per engine: the independently tracked high-water mark
}

func newBranching(engines []*Engine, cross func(src, dst int, at Time, fn func())) *branching {
	b := &branching{engines: engines, cross: cross}
	for i := range engines {
		b.rng = append(b.rng, rand.New(rand.NewSource(int64(41+i))))
		b.budget = append(b.budget, 4000)
		b.deepest = append(b.deepest, 0)
	}
	for i, e := range engines {
		for k := 0; k < 50; k++ {
			e.At(Time(b.rng[i].Float64()), b.event(i))
		}
	}
	return b
}

func (b *branching) event(i int) func() {
	return func() {
		e := b.engines[i]
		if d := e.Pending() + 1; d > b.deepest[i] {
			b.deepest[i] = d
		}
		rng := b.rng[i]
		for k := rng.Intn(4); k > 0 && b.budget[i] > 0; k-- {
			b.budget[i]--
			at := e.Now() + Time(0.01+rng.Float64())
			if b.cross != nil && b.budget[i]%3 == 0 {
				dst := 1 - i
				b.cross(i, dst, at, b.event(dst))
				continue
			}
			e.At(at, b.event(i))
		}
	}
}

func (b *branching) max() int {
	m := 0
	for _, d := range b.deepest {
		m = max(m, d)
	}
	return m
}

// TestHeapDepthGaugeMatchesTrackedMax: with metrics attached, the
// sim_event_heap_depth_max gauge — raised only when an engine's own
// high-water mark grows — equals the deepest heap any event was popped
// from, on Step, RunUntil and the sharded windows alike.
func TestHeapDepthGaugeMatchesTrackedMax(t *testing.T) {
	const name, help = "sim_event_heap_depth_max", "High-water mark of the pending-event heap."
	for _, mode := range []string{"step", "rununtil"} {
		t.Run(mode, func(t *testing.T) {
			reg := metrics.NewRegistry()
			e := NewEngine()
			e.SetMetrics(reg.Counter("sim_events_total", ""), reg.Gauge(name, help))
			b := newBranching([]*Engine{e}, nil)
			var err error
			if mode == "step" {
				err = e.Run()
			} else {
				err = e.RunUntil(1e9)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, want := reg.Gauge(name, help).Value(), float64(b.max()); got != want || want < 50 {
				t.Fatalf("gauge %v, tracked max %v", got, want)
			}
		})
	}
	t.Run("sharded", func(t *testing.T) {
		reg := metrics.NewRegistry()
		s := NewShards(2, 0.01)
		defer s.Close()
		s.SetMetrics(reg)
		b := newBranching([]*Engine{s.Engine(0), s.Engine(1)}, s.Cross)
		if err := s.RunUntil(1e6); err != nil {
			t.Fatal(err)
		}
		if got, want := reg.Gauge(name, help).Value(), float64(b.max()); got != want || want < 50 {
			t.Fatalf("gauge %v, tracked max %v", got, want)
		}
	})
}
