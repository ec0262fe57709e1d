package experiment

import (
	"context"
	"fmt"
	"testing"

	"cloudlb/internal/elastic"
)

func TestFaultedRunEvacuatesAndFinishes(t *testing.T) {
	s := Scenario{App: Wave2D, Cores: 4, Strategy: Refine, Seed: 1, Scale: 0.25,
		Faults: Fig5Schedule(4, 0.25)}
	res := Run(s)
	if res.Evacuations != charesPerCore {
		t.Fatalf("Evacuations=%d, want %d (one revoked PE's chares)", res.Evacuations, charesPerCore)
	}
	base := Run(Scenario{App: Wave2D, Cores: 4, Strategy: Refine, Seed: 1, Scale: 0.25})
	if base.Evacuations != 0 {
		t.Fatalf("fault-free run reports %d evacuations", base.Evacuations)
	}
	if res.AppWall <= base.AppWall {
		t.Fatalf("revocation sped the run up: %v vs base %v", res.AppWall, base.AppWall)
	}
}

func TestFaultedRunDeterministic(t *testing.T) {
	s := Scenario{App: Wave2D, Cores: 4, Strategy: Refine, Seed: 2, Scale: 0.25,
		Faults: Fig5Schedule(4, 0.25)}
	// Compare formatted (struct equality trips on the NaN BGWall).
	a, b := fmt.Sprintf("%+v", Run(s)), fmt.Sprintf("%+v", Run(s))
	if a != b {
		t.Fatalf("same faulted scenario diverged:\n%s\n%s", a, b)
	}
}

func TestFaultsRequireApp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppNone with Faults did not panic")
		}
	}()
	Run(Scenario{App: AppNone, BG: BGWave2D, Cores: 4, Seed: 1, Scale: quickScale,
		Faults: elastic.Schedule{{PE: 0, At: 1}}})
}

// TestFig5RefineBeatsNoLB is the acceptance property behind the committed
// Figure 5 artifact: with RefineLB the timing penalty of a revocation and
// replacement is at most half the noLB penalty (the balancer refills the
// restored PE; without it the evacuees crowd the surviving cores forever).
func TestFig5RefineBeatsNoLB(t *testing.T) {
	out, err := Spec{App: Wave2D, Cores: []int{8}, Strategies: []StrategyKind{NoLB, Refine},
		Seeds: []int64{1}, Scale: 0.5, Faults: Fig5Schedule(8, 0.5)}.
		Run(context.Background(), "elasticity", Options{})
	if err != nil {
		t.Fatal(err)
	}
	evals := out.Rows.([]ElasticEval)
	no, ref := evals[0], evals[1]
	if no.Strategy != NoLB || ref.Strategy != Refine {
		t.Fatalf("rows out of order: %+v", evals)
	}
	if no.PenaltyPct <= 0 || ref.PenaltyPct <= 0 {
		t.Fatalf("penalties not positive: noLB %.2f%%, refine %.2f%%", no.PenaltyPct, ref.PenaltyPct)
	}
	if ref.PenaltyPct > no.PenaltyPct/2 {
		t.Fatalf("RefineLB penalty %.2f%% not <= half of noLB %.2f%%", ref.PenaltyPct, no.PenaltyPct)
	}
	if ref.Evacuations != charesPerCore {
		t.Fatalf("Evacuations=%d, want %d", ref.Evacuations, charesPerCore)
	}
	if ref.Migrations == 0 {
		t.Fatal("RefineLB migrated nothing after the restore")
	}
}
