package experiment

import (
	"math"
	"strings"
	"testing"

	"cloudlb/internal/elastic"
	"cloudlb/internal/xnet"
)

func fieldsOf(t *testing.T, err error) map[string]string {
	t.Helper()
	verr, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("want *ValidationError, got %T: %v", err, err)
	}
	m := make(map[string]string, len(verr.Fields))
	for _, f := range verr.Fields {
		m[f.Field] = f.Msg
	}
	return m
}

func TestValidateOK(t *testing.T) {
	specs := []Spec{
		{App: Wave2D, Cores: []int{8}},
		{App: AppNone, Cores: []int{8}, BG: BGWave2D},
		{App: Mol3D, Cores: []int{16, 32}, Strategies: []StrategyKind{Refine, Greedy},
			Seeds: []int64{1, 2}, BG: BGCloudChurn, Scale: 2,
			Faults: elastic.Schedule{{PE: 1, At: 2}},
			Net:    xnet.Config{DropPct: 5, Seed: 3}},
	}
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			t.Errorf("spec %d: unexpected validation error: %v", i, err)
		}
	}
}

func TestValidateFieldPaths(t *testing.T) {
	sp := Spec{
		App:         AppKind(99),
		Cores:       []int{8, -4, 6},
		Strategies:  []StrategyKind{Refine, StrategyKind(42)},
		Scale:       -1,
		EpsilonFrac: -0.1,
		Net:         xnet.Config{DropPct: 120, StragglerNodes: []int{-1}},
		DropPcts:    []float64{0, 100},
		Periods:     []int{0},
	}
	fields := fieldsOf(t, sp.Validate())
	for _, want := range []string{
		"app", "cores[1]", "cores[2]", "strategies[1]", "scale",
		"epsilon_frac", "net.drop_pct", "net.straggler_nodes[0]",
		"drop_pcts[1]", "periods[0]",
	} {
		if _, ok := fields[want]; !ok {
			t.Errorf("missing field error %q in %v", want, fields)
		}
	}
	if msg := fields["cores[1]"]; !strings.Contains(msg, "multiple of 4") {
		t.Errorf("cores[1] message should name the constraint, got %q", msg)
	}
}

func TestValidateAppNoneNeedsBG(t *testing.T) {
	fields := fieldsOf(t, Spec{App: AppNone, Cores: []int{8}}.Validate())
	if _, ok := fields["app"]; !ok {
		t.Fatalf("AppNone without BGWave2D must flag app, got %v", fields)
	}
}

func TestValidateFaults(t *testing.T) {
	// PE 9 is out of range on an 8-core allocation.
	sp := Spec{App: Wave2D, Cores: []int{8},
		Faults: elastic.Schedule{{PE: 9, At: 1}}}
	fields := fieldsOf(t, sp.Validate())
	if _, ok := fields["faults"]; !ok {
		t.Fatalf("out-of-range revocation must flag faults, got %v", fields)
	}
	// Faults without an application revoke nothing meaningful.
	sp = Spec{App: AppNone, Cores: []int{8}, BG: BGWave2D,
		Faults: elastic.Schedule{{PE: 1, At: 1}}}
	fields = fieldsOf(t, sp.Validate())
	if _, ok := fields["faults"]; !ok {
		t.Fatalf("faults without an app must flag faults, got %v", fields)
	}
}

func TestValidateEmptyCores(t *testing.T) {
	fields := fieldsOf(t, Spec{App: Wave2D}.Validate())
	if _, ok := fields["cores"]; !ok {
		t.Fatalf("empty cores must flag cores, got %v", fields)
	}
}

// dropPctCases are the drop percentages every drop validator must
// classify alike: NaN and the infinities compare false against any
// bound, so a validator written as `d < 0 || d >= 100` lets them through.
var dropPctCases = []struct {
	pct float64
	ok  bool
}{
	{math.NaN(), false},
	{math.Inf(1), false},
	{math.Inf(-1), false},
	{math.Copysign(0, -1), true},
	{0, true},
	{99.9, true},
	{100, false},
}

func TestValidateDropPctNonFinite(t *testing.T) {
	for _, c := range dropPctCases {
		for _, tc := range []struct {
			field string
			spec  Spec
		}{
			{"drop_pcts[0]", Spec{App: Wave2D, Cores: []int{8}, DropPcts: []float64{c.pct}}},
			{"net.drop_pct", Spec{App: Wave2D, Cores: []int{8}, Net: xnet.Config{DropPct: c.pct}}},
		} {
			err := tc.spec.Validate()
			if c.ok {
				if err != nil {
					t.Errorf("%s = %v: unexpected error %v", tc.field, c.pct, err)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s = %v: accepted", tc.field, c.pct)
				continue
			}
			if _, ok := fieldsOf(t, err)[tc.field]; !ok {
				t.Errorf("%s = %v: error does not name the field: %v", tc.field, c.pct, err)
			}
		}
	}
}
