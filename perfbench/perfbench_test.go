package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"cloudlb/internal/experiment"
)

// tinyScenario is a sharded scenario small enough for a unit test.
func tinyScenario(seed int64) experiment.Scenario {
	return experiment.Scenario{
		App: experiment.Wave2D, Cores: 8, Strategy: experiment.Refine,
		BG: experiment.BGWave2D, Scale: 0.05, Seed: seed, Shards: 2,
	}
}

func TestPerturbedReferenceCountsAsFailedOp(t *testing.T) {
	good := refOf(experiment.Run(tinyScenario(1)))
	key := scenarioKey(tinyScenario(1))
	bad := good
	bad.Events++

	for _, tc := range []struct {
		name       string
		ref        refResult
		wantFailed bool
	}{
		{"recorded reference", good, false},
		{"perturbed reference", bad, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := workloadSpec{name: "tiny", kind: "scenario", metric: "scenario_s", build: func() workload {
				return &scenarioWorkload{build: tinyScenario, inputs: 1, refs: refTable{key: tc.ref}}
			}}
			rec, err := runWorkload(spec, 1, time.Millisecond, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if rec.Attempted == 0 {
				t.Fatal("no op attempted")
			}
			if got := rec.Failed == rec.Attempted; got != tc.wantFailed {
				t.Fatalf("failed %d of %d ops, want all failed = %v (%v)", rec.Failed, rec.Attempted, tc.wantFailed, rec.Failures)
			}
			if tc.wantFailed && (rec.Failed == 0 || rec.Summary["failed_frac"].Value == 0) {
				t.Fatalf("failed_frac = %v, want > 0", rec.Summary["failed_frac"].Value)
			}
		})
	}
}

func TestReferenceDiffCoversEveryField(t *testing.T) {
	base := refResult{
		AppWall: 1, BGWall: exactFloat(math.NaN()), AvgPowerW: 3, EnergyJ: 4,
		Migrations: 5, LBSteps: 6, Events: 7, NetDrops: 8, NetRetransmits: 9,
	}
	if err := base.diff(base); err != nil {
		t.Fatalf("identical results differ: %v", err)
	}
	for name, perturb := range map[string]func(*refResult){
		"app_wall":        func(r *refResult) { r.AppWall = exactFloat(math.Nextafter(1, 2)) },
		"bg_wall":         func(r *refResult) { r.BGWall = 2 },
		"avg_power_w":     func(r *refResult) { r.AvgPowerW++ },
		"energy_j":        func(r *refResult) { r.EnergyJ++ },
		"migrations":      func(r *refResult) { r.Migrations++ },
		"lb_steps":        func(r *refResult) { r.LBSteps++ },
		"events":          func(r *refResult) { r.Events++ },
		"net_drops":       func(r *refResult) { r.NetDrops++ },
		"net_retransmits": func(r *refResult) { r.NetRetransmits++ },
	} {
		got := base
		perturb(&got)
		if err := base.diff(got); err == nil {
			t.Errorf("perturbed %s went unnoticed", name)
		}
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"cloudlb/internal/service/store.(*Store).PutBytes":               "store",
		"cloudlb/internal/service.(*Service).runJob":                     "service",
		"cloudlb/internal/core.(*RefineLB).Plan":                         "lb",
		"cloudlb/internal/lb.(*DiffusionLB).NewPlanner":                  "lb",
		"cloudlb/internal/runner.Map[go.shape.struct { App int }].func1": "runner",
		"cloudlb/internal/metrics.(*Counter).Add":                        "other",
		"main.(*serviceMix).fetch":                                       "bench",
		"runtime.mallocgc":                                               "",
		"net/http.(*conn).serve":                                         "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestProfileAttributesSimulationLayers(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	for t0 := time.Now(); time.Since(t0) < time.Second; {
		experiment.Run(tinyScenario(1))
	}
	pprof.StopCPUProfile()
	byLayer, err := profileLayers(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range []string{"sim", "charm", "apps"} {
		if byLayer[layer] == 0 {
			t.Errorf("no CPU time attributed to %s: %v", layer, byLayer)
		}
	}
	// The race detector's own frames cut stacks short, so most of its
	// samples have no program frame left to attribute.
	if raceEnabled {
		return
	}
	var total, simulated float64
	for layer, s := range byLayer {
		total += s
		switch layer {
		case "sim", "machine", "charm", "apps", "xnet", "lb", "interfere", "experiment":
			simulated += s
		}
	}
	if simulated < total/2 {
		t.Fatalf("profile attributed %.2fs of %.2fs to simulation layers: %v", simulated, total, byLayer)
	}
}
