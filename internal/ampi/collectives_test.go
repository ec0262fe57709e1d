package ampi

import (
	"math"
	"testing"

	"cloudlb/internal/charm"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

func TestBcast(t *testing.T) {
	eng, _, rts := world(t, 4, nil)
	const n = 8
	got := make([]interface{}, n)
	New(rts, "bc", n, func(r *Rank) {
		var payload interface{}
		if r.Rank() == 3 {
			payload = "hello"
		}
		got[r.Rank()] = r.Bcast(3, payload, 1024)
	})
	rts.Start()
	runToDone(t, eng, rts, 100)
	for i := 0; i < n; i++ {
		if got[i] != "hello" {
			t.Fatalf("rank %d got %v", i, got[i])
		}
	}
}

func TestReduceToRoot(t *testing.T) {
	eng, _, rts := world(t, 2, nil)
	const n = 6
	got := make([]float64, n)
	New(rts, "red", n, func(r *Rank) {
		got[r.Rank()] = r.Reduce(2, float64(r.Rank()+1), charm.ReduceSum)
	})
	rts.Start()
	runToDone(t, eng, rts, 100)
	for i := 0; i < n; i++ {
		want := 0.0
		if i == 2 {
			want = 21 // 1+2+...+6
		}
		if got[i] != want {
			t.Fatalf("rank %d got %v, want %v", i, got[i], want)
		}
	}
}

func TestGatherOrdered(t *testing.T) {
	eng, _, rts := world(t, 4, nil)
	const n = 7
	var rootResult []interface{}
	New(rts, "g", n, func(r *Rank) {
		res := r.Gather(0, r.Rank()*10, 64)
		if r.Rank() == 0 {
			rootResult = res
		} else if res != nil {
			t.Errorf("non-root rank %d got gather result", r.Rank())
		}
	})
	rts.Start()
	runToDone(t, eng, rts, 100)
	if len(rootResult) != n {
		t.Fatalf("root gathered %d items, want %d", len(rootResult), n)
	}
	for i, v := range rootResult {
		if v != i*10 {
			t.Fatalf("slot %d holds %v, want %d", i, v, i*10)
		}
	}
}

func TestGatherSynchronizes(t *testing.T) {
	// No rank may pass Gather before the root has collected everything:
	// measure that every rank's post-gather time >= the slowest rank's
	// pre-gather compute.
	eng, _, rts := world(t, 4, nil)
	const n = 4
	after := make([]float64, n)
	New(rts, "gs", n, func(r *Rank) {
		r.Charge(float64(r.Rank()) * 0.2) // rank 3 computes 0.6s
		r.Gather(1, r.Rank(), 64)
		after[r.Rank()] = r.Wtime()
	})
	rts.Start()
	runToDone(t, eng, rts, 100)
	for i := 0; i < n; i++ {
		if after[i] < 0.6 {
			t.Fatalf("rank %d passed gather at %v, before the slowest rank finished", i, after[i])
		}
	}
}

func TestSendRecvSymmetricExchange(t *testing.T) {
	// Pairwise exchange with SendRecv must not deadlock and must swap
	// values.
	eng, _, rts := world(t, 2, nil)
	const n = 4
	got := make([]interface{}, n)
	New(rts, "sr", n, func(r *Rank) {
		partner := r.Rank() ^ 1
		got[r.Rank()] = r.SendRecv(partner, r.Rank()*100, 256, partner)
	})
	rts.Start()
	runToDone(t, eng, rts, 100)
	for i := 0; i < n; i++ {
		if got[i] != (i^1)*100 {
			t.Fatalf("rank %d got %v, want %d", i, got[i], (i^1)*100)
		}
	}
}

func TestWtimeAdvances(t *testing.T) {
	eng, _, rts := world(t, 1, nil)
	var before, elapsed float64
	New(rts, "t", 1, func(r *Rank) {
		before = r.Wtime()
		r.Charge(1.5)
		r.Barrier() // force a segment boundary so the charge lands
		elapsed = r.WallSince(before)
	})
	rts.Start()
	runToDone(t, eng, rts, 100)
	if math.Abs(elapsed-1.5) > 0.05 {
		t.Fatalf("elapsed %v, want ~1.5", elapsed)
	}
}

func TestPEReportsExecutionCore(t *testing.T) {
	eng, _, rts := world(t, 2, nil)
	pes := make([]int, 4)
	New(rts, "pe", 4, func(r *Rank) {
		r.Barrier() // cross an entry boundary so ctx is live
		pes[r.Rank()] = r.PE()
	})
	rts.Start()
	runToDone(t, eng, rts, 100)
	for i, pe := range pes {
		if pe < 0 || pe > 1 {
			t.Fatalf("rank %d reports PE %d on a 2-PE runtime", i, pe)
		}
	}
}

func TestNegativeChargePanics(t *testing.T) {
	eng, _, rts := world(t, 1, nil)
	panicked := make(chan bool, 1)
	New(rts, "neg", 1, func(r *Rank) {
		defer func() { panicked <- recover() != nil }()
		r.Charge(-1)
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
			t.Fatal("negative charge did not panic")
		}
	default:
		t.Fatal("program never ran")
	}
}

func TestGatherBlockedRecvAny(t *testing.T) {
	// The root blocks in recvGather (yRecvAny) while payloads are still
	// in flight: exercises the blocking path, not just the buffered one.
	eng, _, rts := world(t, 4, nil)
	const n = 6
	var got []interface{}
	New(rts, "ga", n, func(r *Rank) {
		if r.Rank() != 0 {
			r.Charge(0.05 * float64(r.Rank())) // staggered arrivals
		}
		res := r.Gather(0, r.Rank(), 64)
		if r.Rank() == 0 {
			got = res
		}
	})
	rts.Start()
	runToDone(t, eng, rts, 100)
	if len(got) != n {
		t.Fatalf("gathered %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("slot %d holds %v", i, v)
		}
	}
}

func TestBcastInvalidRootPanics(t *testing.T) {
	eng, _, rts := world(t, 1, nil)
	panicked := make(chan bool, 1)
	New(rts, "bad", 1, func(r *Rank) {
		defer func() { panicked <- recover() != nil }()
		r.Bcast(9, nil, 8)
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
			t.Fatal("invalid root did not panic")
		}
	default:
		t.Fatal("program never ran")
	}
}

// TestWtimeReadsOwnPEClock: Wtime is the clock of the PE executing the
// rank. A 2-node world run on one shard and on two (one node each) must
// record identical per-rank Wtime sequences; on two shards a rank on
// node 1 that read another shard's clock would see a foreign — and,
// inside a parallel window, racing — time.
func TestWtimeReadsOwnPEClock(t *testing.T) {
	const ranks, steps = 4, 12
	run := func(shards int) [][]float64 {
		const nodes = 2
		netCfg := xnet.DefaultConfig()
		sh := sim.NewShards(shards, sim.Time(netCfg.MinInterNodeLatency(nodes)))
		defer sh.Close()
		m := machine.New(sh, machine.Config{Nodes: nodes, CoresPerNode: 2, CoreSpeed: 1})
		rts := charm.NewRTS(charm.Config{Machine: m, Net: xnet.New(m, netCfg), Cores: []int{0, 1, 2, 3}})
		times := make([][]float64, ranks)
		New(rts, "wt", ranks, func(r *Rank) {
			partner := r.Rank() ^ 2 // the same local index on the other node
			for i := 0; i < steps; i++ {
				r.Charge(0.01 * float64(1+(r.Rank()+i)%3))
				r.SendRecv(partner, i, 512, partner)
				times[r.Rank()] = append(times[r.Rank()], r.Wtime())
			}
		})
		rts.Start()
		for !rts.Finished() && sh.Now() < 100 {
			if err := sh.RunUntil(sh.Now() + 1); err != nil {
				t.Fatal(err)
			}
		}
		if !rts.Finished() {
			t.Fatalf("%d shards: world did not finish", shards)
		}
		return times
	}
	want := run(1)
	got := run(2)
	for rank := range want {
		if len(want[rank]) != steps || len(got[rank]) != steps {
			t.Fatalf("rank %d: %d and %d Wtime samples, want %d", rank, len(want[rank]), len(got[rank]), steps)
		}
		for i := range want[rank] {
			if got[rank][i] != want[rank][i] {
				t.Fatalf("rank %d step %d: Wtime %v on 2 shards, %v on 1", rank, i, got[rank][i], want[rank][i])
			}
		}
	}
}
