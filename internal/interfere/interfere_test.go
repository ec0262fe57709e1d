package interfere

import (
	"math"
	"testing"

	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
	"cloudlb/internal/xnet"
)

func testMachine(nodes, cores int) (*sim.Engine, *machine.Machine) {
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := machine.New(sh, machine.Config{Nodes: nodes, CoresPerNode: cores, CoreSpeed: 1})
	return eng, m
}

func TestHogOccupiesCoreBetweenStartAndStop(t *testing.T) {
	eng, m := testMachine(1, 1)
	h := StartHog(m, HogConfig{Core: 0, Start: 1, Stop: 3, BurstCPU: 0.1})
	if err := eng.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if !h.Stopped() {
		t.Fatal("hog did not stop")
	}
	busy, idle := m.Core(0).ProcStat()
	if math.Abs(float64(busy-2)) > 1e-6 || math.Abs(float64(idle-3)) > 1e-6 {
		t.Fatalf("busy=%v idle=%v, want 2/3", busy, idle)
	}
	if math.Abs(h.CPUUsed()-2) > 1e-6 {
		t.Fatalf("hog used %v cpu, want 2", h.CPUUsed())
	}
}

func TestHogRunsForeverWithoutStop(t *testing.T) {
	eng, m := testMachine(1, 1)
	h := StartHog(m, HogConfig{Core: 0, Start: 0, BurstCPU: 0.5})
	if err := eng.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if h.Stopped() {
		t.Fatal("hog stopped by itself")
	}
	busy, _ := m.Core(0).ProcStat()
	if math.Abs(float64(busy-10)) > 1e-6 {
		t.Fatalf("busy=%v over 10s, want 10", busy)
	}
}

func TestHogDutyCycle(t *testing.T) {
	eng, m := testMachine(1, 1)
	StartHog(m, HogConfig{Core: 0, Start: 0, BurstCPU: 0.1, Gap: 0.1})
	if err := eng.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	busy, _ := m.Core(0).ProcStat()
	// 50% duty cycle.
	if math.Abs(float64(busy)-5) > 0.2 {
		t.Fatalf("busy=%v over 10s at 50%% duty, want ~5", busy)
	}
}

func TestHogSharesCoreFairly(t *testing.T) {
	eng, m := testMachine(1, 1)
	StartHog(m, HogConfig{Core: 0, Start: 0, BurstCPU: 0.1})
	other := m.NewThread("victim", m.Core(0), 1)
	var done sim.Time
	other.Run(2, func() { done = eng.Now() })
	if err := eng.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	// Equal weights: the 2s burst takes ~4s of wall time.
	if math.Abs(float64(done)-4) > 0.05 {
		t.Fatalf("victim finished at %v sharing with hog, want ~4", done)
	}
}

func TestHogWeightPreference(t *testing.T) {
	eng, m := testMachine(1, 1)
	StartHog(m, HogConfig{Core: 0, Start: 0, BurstCPU: 0.1, Weight: 4})
	victim := m.NewThread("victim", m.Core(0), 1)
	var done sim.Time
	victim.Run(1, func() { done = eng.Now() })
	if err := eng.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	// Victim gets ~1/5 of the core: 1s of CPU takes ~5s.
	if math.Abs(float64(done)-5) > 0.1 {
		t.Fatalf("victim finished at %v against weight-4 hog, want ~5", done)
	}
}

func TestHogTracesBackgroundSegments(t *testing.T) {
	eng, m := testMachine(1, 1)
	rec := trace.NewRecorder()
	StartHog(m, HogConfig{Core: 0, Start: 0, Stop: 2, BurstCPU: 0.5, Trace: rec, Name: "bg1"})
	if err := eng.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	frac := rec.BusyFraction(0, trace.KindBackground, 0, 2)
	if frac < 0.7 {
		t.Fatalf("background fraction %v in [0,2], want ~1", frac)
	}
}

func TestHogStopMidBurstFreesCore(t *testing.T) {
	eng, m := testMachine(1, 1)
	StartHog(m, HogConfig{Core: 0, Start: 0, Stop: 0.25, BurstCPU: 10})
	if err := eng.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	busy, _ := m.Core(0).ProcStat()
	if math.Abs(float64(busy)-0.25) > 1e-6 {
		t.Fatalf("busy=%v, want 0.25 (burst aborted at stop)", busy)
	}
}

func TestWave2DJobRuns(t *testing.T) {
	eng, m := testMachine(1, 4)
	net := xnet.New(m, xnet.DefaultConfig())
	job := NewWave2DJob(m, net, Wave2DJobConfig{Cores: []int{2, 3}, Iters: 40})
	job.Start()
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if !job.Finished() {
		t.Fatal("background job did not finish")
	}
	// Only cores 2 and 3 did work.
	for c := 0; c < 2; c++ {
		busy, _ := m.Core(c).ProcStat()
		if busy > 0 {
			t.Fatalf("core %d busy %v; background job leaked off its cores", c, busy)
		}
	}
	busy2, _ := m.Core(2).ProcStat()
	if busy2 <= 0 {
		t.Fatal("background job did no work on its cores")
	}
}

func TestWave2DJobSlowsSharingThread(t *testing.T) {
	eng, m := testMachine(1, 2)
	net := xnet.New(m, xnet.DefaultConfig())
	job := NewWave2DJob(m, net, Wave2DJobConfig{Cores: []int{0, 1}, Iters: 2000})
	job.Start()
	victim := m.NewThread("victim", m.Core(0), 1)
	var done sim.Time
	victim.Run(1, func() { done = eng.Now() })
	if err := eng.RunUntil(60); err != nil {
		t.Fatal(err)
	}
	if done == 0 {
		t.Fatal("victim never finished")
	}
	// The job keeps its cores mostly busy; the victim should take
	// noticeably longer than 1s (sharing), but less than 3x.
	if done < 1.3 || done > 3 {
		t.Fatalf("victim finished at %v, want within (1.3, 3)", done)
	}
}

func TestGridShape(t *testing.T) {
	cases := map[int][2]int{16: {4, 4}, 12: {4, 3}, 7: {7, 1}, 1: {1, 1}, 32: {8, 4}}
	for n, want := range cases {
		if got := gridShape(n); got != want {
			t.Fatalf("gridShape(%d)=%v, want %v", n, got, want)
		}
	}
}

func TestHogInvalidGapPanics(t *testing.T) {
	_, m := testMachine(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative gap did not panic")
		}
	}()
	StartHog(m, HogConfig{Core: 0, Gap: -1})
}

func TestWave2DJobNeedsCores(t *testing.T) {
	_, m := testMachine(1, 1)
	net := xnet.New(m, xnet.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("empty cores did not panic")
		}
	}()
	NewWave2DJob(m, net, Wave2DJobConfig{})
}
