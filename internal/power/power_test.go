package power

import (
	"math"
	"testing"

	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
)

const tol = 1e-6

func TestNodePower(t *testing.T) {
	m := DefaultModel()
	if p := m.NodePower([]float64{0, 0, 0, 0}); math.Abs(p-40) > tol {
		t.Fatalf("idle node draws %v, want 40", p)
	}
	if p := m.NodePower([]float64{1, 1, 1, 1}); math.Abs(p-170) > tol {
		t.Fatalf("loaded node draws %v, want 170", p)
	}
	if p := m.NodePower([]float64{0.5, 0.5, 0, 0}); math.Abs(p-72.5) > tol {
		t.Fatalf("half-loaded pair draws %v, want 72.5", p)
	}
}

func TestNodePowerClampsUtilization(t *testing.T) {
	m := Model{BaseWatts: 10, DynamicWattsPerCore: 10}
	if p := m.NodePower([]float64{-0.5, 1.5}); math.Abs(p-20) > tol {
		t.Fatalf("clamped power %v, want 20", p)
	}
}

func TestMeterIdleMachine(t *testing.T) {
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := machine.New(sh, machine.Config{Nodes: 2, CoresPerNode: 4, CoreSpeed: 1})
	meter := NewMeter(m, DefaultModel(), 1, nil)
	meter.Start()
	if err := eng.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	meter.Stop()
	if len(meter.Samples()) != 10 {
		t.Fatalf("%d samples over 10s, want 10", len(meter.Samples()))
	}
	// Two idle nodes: 80 W for 10 s = 800 J.
	if math.Abs(meter.EnergyJoules()-800) > tol {
		t.Fatalf("idle energy %v J, want 800", meter.EnergyJoules())
	}
	if math.Abs(meter.AveragePowerWatts()-80) > tol {
		t.Fatalf("avg power %v W, want 80", meter.AveragePowerWatts())
	}
}

func TestMeterBusyCore(t *testing.T) {
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := machine.New(sh, machine.Config{Nodes: 1, CoresPerNode: 4, CoreSpeed: 1})
	th := m.NewThread("hog", m.Core(0), 1)
	var loop func()
	loop = func() { th.Run(1, loop) }
	loop()
	meter := NewMeter(m, DefaultModel(), 1, nil)
	meter.Start()
	if err := eng.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	meter.Stop()
	// One core 100% busy: 40 + 32.5 = 72.5 W over 10 s.
	if math.Abs(meter.EnergyJoules()-725) > 1e-3 {
		t.Fatalf("energy %v J, want 725", meter.EnergyJoules())
	}
	for _, s := range meter.Samples() {
		if math.Abs(s.NodeWatt[0]-72.5) > 1e-3 {
			t.Fatalf("sample at %v reads %v W, want 72.5", s.At, s.NodeWatt[0])
		}
	}
}

func TestMeterPartialUtilization(t *testing.T) {
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := machine.New(sh, machine.Config{Nodes: 1, CoresPerNode: 1, CoreSpeed: 1})
	th := m.NewThread("half", m.Core(0), 1)
	// 0.5 s burst then 0.5 s sleep, repeating: 50% utilization.
	var loop func()
	loop = func() {
		th.Run(0.5, func() { eng.After(0.5, loop) })
	}
	loop()
	meter := NewMeter(m, Model{BaseWatts: 40, DynamicWattsPerCore: 32.5}, 1, nil)
	meter.Start()
	if err := eng.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	meter.Stop()
	want := (40 + 32.5*0.5) * 10
	if math.Abs(meter.EnergyJoules()-want) > 1e-3 {
		t.Fatalf("energy %v J, want %v", meter.EnergyJoules(), want)
	}
}

func TestMeterSubsetOfNodes(t *testing.T) {
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := machine.New(sh, machine.Config{Nodes: 4, CoresPerNode: 2, CoreSpeed: 1})
	meter := NewMeter(m, Model{BaseWatts: 10, DynamicWattsPerCore: 5}, 1, []int{1, 2})
	meter.Start()
	if err := eng.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	meter.Stop()
	// Only nodes 1 and 2 metered: 2 * 10 W * 5 s = 100 J.
	if math.Abs(meter.EnergyJoules()-100) > tol {
		t.Fatalf("energy %v J, want 100", meter.EnergyJoules())
	}
	for _, s := range meter.Samples() {
		if s.NodeWatt[0] != 0 || s.NodeWatt[3] != 0 {
			t.Fatal("unmetered nodes have nonzero readings")
		}
	}
}

func TestMeterStopTakesPartialSample(t *testing.T) {
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := machine.New(sh, machine.Config{Nodes: 1, CoresPerNode: 1, CoreSpeed: 1})
	meter := NewMeter(m, Model{BaseWatts: 100, DynamicWattsPerCore: 0}, 1, nil)
	meter.Start()
	if err := eng.RunUntil(2.5); err != nil {
		t.Fatal(err)
	}
	meter.Stop()
	if math.Abs(meter.EnergyJoules()-250) > tol {
		t.Fatalf("energy %v J after 2.5 s at 100 W, want 250", meter.EnergyJoules())
	}
}

func TestMeterDoubleStartPanics(t *testing.T) {
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := machine.New(sh, machine.Config{Nodes: 1, CoresPerNode: 1, CoreSpeed: 1})
	meter := NewMeter(m, DefaultModel(), 1, nil)
	meter.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	meter.Start()
	_ = eng
}

func TestSampleTotal(t *testing.T) {
	s := Sample{NodeWatt: []float64{40, 60, 0}}
	if s.Total() != 100 {
		t.Fatalf("total %v, want 100", s.Total())
	}
}

func TestEnergyEqualsIntegralUnderLoadChange(t *testing.T) {
	// Load switches from 100% to 0% at t=5: energy must integrate both
	// phases correctly.
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := machine.New(sh, machine.Config{Nodes: 1, CoresPerNode: 1, CoreSpeed: 1})
	th := m.NewThread("x", m.Core(0), 1)
	th.Run(5, nil)
	meter := NewMeter(m, Model{BaseWatts: 40, DynamicWattsPerCore: 60}, 1, nil)
	meter.Start()
	if err := eng.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	meter.Stop()
	want := (40.0+60.0)*5 + 40.0*5
	if math.Abs(meter.EnergyJoules()-want) > 1e-3 {
		t.Fatalf("energy %v J, want %v", meter.EnergyJoules(), want)
	}
}
