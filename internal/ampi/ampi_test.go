package ampi

import (
	"math"
	"testing"

	"cloudlb/internal/charm"
	"cloudlb/internal/core"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

func world(t *testing.T, coresN int, strat core.Strategy) (*sim.Engine, *machine.Machine, *charm.RTS) {
	t.Helper()
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := machine.New(sh, machine.Config{Nodes: 1, CoresPerNode: coresN, CoreSpeed: 1})
	n := xnet.New(m, xnet.DefaultConfig())
	cores := make([]int, coresN)
	for i := range cores {
		cores[i] = i
	}
	rts := charm.NewRTS(charm.Config{Machine: m, Net: n, Cores: cores, Strategy: strat})
	return eng, m, rts
}

func runToDone(t *testing.T, eng *sim.Engine, rts *charm.RTS, deadline sim.Time) {
	t.Helper()
	for !rts.Finished() && eng.Now() < deadline {
		if err := eng.RunUntil(eng.Now() + 1); err != nil {
			t.Fatal(err)
		}
	}
	if !rts.Finished() {
		t.Fatalf("AMPI world did not finish by t=%v", deadline)
	}
}

func TestPingPong(t *testing.T) {
	eng, _, rts := world(t, 2, nil)
	var got []int
	New(rts, "pp", 2, func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 5; i++ {
				r.Send(1, i*10, 64)
				v := r.Recv(1).(int)
				got = append(got, v)
			}
		} else {
			for i := 0; i < 5; i++ {
				v := r.Recv(0).(int)
				r.Send(0, v+1, 64)
			}
		}
	})
	rts.Start()
	runToDone(t, eng, rts, 100)
	want := []int{1, 11, 21, 31, 41}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pingpong got %v, want %v", got, want)
		}
	}
}

func TestMessagesFromSameSenderInOrder(t *testing.T) {
	eng, _, rts := world(t, 2, nil)
	var got []int
	New(rts, "ord", 2, func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 10; i++ {
				r.Send(1, i, 1<<uint(i%8)) // varying sizes must not reorder
			}
		} else {
			for i := 0; i < 10; i++ {
				got = append(got, r.Recv(0).(int))
			}
		}
	})
	rts.Start()
	runToDone(t, eng, rts, 100)
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestAllReduce(t *testing.T) {
	eng, _, rts := world(t, 4, nil)
	const n = 8
	results := make([]float64, n)
	maxes := make([]float64, n)
	New(rts, "red", n, func(r *Rank) {
		results[r.Rank()] = r.AllReduce(float64(r.Rank()+1), charm.ReduceSum)
		maxes[r.Rank()] = r.AllReduce(float64(r.Rank()), charm.ReduceMax)
	})
	rts.Start()
	runToDone(t, eng, rts, 100)
	for i := 0; i < n; i++ {
		if results[i] != 36 {
			t.Fatalf("rank %d sum %v, want 36", i, results[i])
		}
		if maxes[i] != 7 {
			t.Fatalf("rank %d max %v, want 7", i, maxes[i])
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	eng, _, rts := world(t, 4, nil)
	const n = 4
	after := make([]sim.Time, n)
	New(rts, "bar", n, func(r *Rank) {
		// Rank i computes i*0.1s, then barriers: everyone leaves the
		// barrier no earlier than the slowest rank's compute.
		r.Charge(float64(r.Rank()) * 0.1)
		r.Barrier()
		after[r.Rank()] = sim.Time(0) // placeholder, set below via closure trick
	})
	// Track completion times via a second barrier-free structure: simply
	// check overall finish >= slowest compute.
	rts.Start()
	runToDone(t, eng, rts, 100)
	if ft := rts.FinishTime(); float64(ft) < 0.3 {
		t.Fatalf("finish %v < slowest rank's 0.3s compute", ft)
	}
	_ = after
}

func TestChargeOccupiesCore(t *testing.T) {
	eng, _, rts := world(t, 1, nil)
	New(rts, "c", 1, func(r *Rank) {
		r.Charge(2.5)
	})
	rts.Start()
	runToDone(t, eng, rts, 100)
	if ft := float64(rts.FinishTime()); math.Abs(ft-2.5) > 0.01 {
		t.Fatalf("finish %v, want ~2.5", ft)
	}
}

func TestTwoRanksShareOneCore(t *testing.T) {
	eng, _, rts := world(t, 1, nil)
	New(rts, "share", 2, func(r *Rank) {
		r.Charge(1)
	})
	rts.Start()
	runToDone(t, eng, rts, 100)
	// Serialized on one PE: ~2s total.
	if ft := float64(rts.FinishTime()); ft < 1.99 || ft > 2.1 {
		t.Fatalf("finish %v, want ~2", ft)
	}
}

func TestMigrateSyncMovesRanksUnderInterference(t *testing.T) {
	run := func(strat core.Strategy, hog bool) (float64, int) {
		eng, m, rts := world(t, 2, strat)
		if hog {
			h := m.NewThread("hog", m.Core(1), 1)
			var loop func()
			loop = func() { h.Run(0.5, loop) }
			loop()
		}
		w := New(rts, "mig", 8, func(r *Rank) {
			for i := 0; i < 40; i++ {
				r.Charge(0.01)
				if i%10 == 9 {
					r.MigrateSync()
				}
			}
		})
		rts.Start()
		runToDone(t, eng, rts, 200)
		moved := 0
		for _, rc := range w.ranks {
			moved += rc.Migrations
		}
		return float64(rts.FinishTime()), moved
	}
	noLB, _ := run(nil, true)
	lb, moved := run(&core.RefineLB{EpsilonFrac: 0.05}, true)
	base, _ := run(nil, false)
	t.Logf("base=%.2f noLB=%.2f lb=%.2f moved=%d", base, noLB, lb, moved)
	if moved == 0 {
		t.Fatal("no ranks migrated")
	}
	if lb >= noLB {
		t.Fatalf("LB run (%v) not faster than noLB (%v)", lb, noLB)
	}
}

func TestRecvBuffersEarlyMessages(t *testing.T) {
	eng, _, rts := world(t, 2, nil)
	var got []interface{}
	New(rts, "buf", 2, func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, "a", 8)
			r.Send(1, "b", 8)
			r.Send(1, "c", 8)
		} else {
			r.Charge(0.5) // messages arrive while computing
			got = append(got, r.Recv(0), r.Recv(0), r.Recv(0))
		}
	})
	rts.Start()
	runToDone(t, eng, rts, 100)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("buffered receive got %v", got)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() sim.Time {
		eng, _, rts := world(t, 4, &core.RefineLB{EpsilonFrac: 0.05})
		New(rts, "det", 16, func(r *Rank) {
			for i := 0; i < 20; i++ {
				r.Charge(0.005 * float64(1+r.Rank()%3))
				if i%5 == 4 {
					r.MigrateSync()
				}
			}
		})
		rts.Start()
		runToDone(t, eng, rts, 100)
		return rts.FinishTime()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("AMPI runs differ: %v vs %v", a, b)
	}
}

func TestInvalidUsePanics(t *testing.T) {
	_, _, rts := world(t, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("zero world size did not panic")
		}
	}()
	New(rts, "bad", 0, nil)
}

func TestSendToInvalidRankPanics(t *testing.T) {
	eng, _, rts := world(t, 1, nil)
	panicked := make(chan bool, 1)
	New(rts, "inv", 1, func(r *Rank) {
		defer func() {
			panicked <- recover() != nil
			// Re-panic would tear down the simulation goroutine handoff;
			// just finish the program.
		}()
		r.Send(5, "x", 8)
	})
	rts.Start()
	for !rts.Finished() && eng.Now() < 10 {
		if err := eng.RunUntil(eng.Now() + 1); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case ok := <-panicked:
		if !ok {
			t.Fatal("send to invalid rank did not panic")
		}
	default:
		t.Fatal("program never ran")
	}
}
