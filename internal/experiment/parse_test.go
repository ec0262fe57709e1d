package experiment

import (
	"errors"
	"math"
	"testing"

	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

// TestNonFiniteStraggleRejected: a NaN or infinite straggler factor is
// refused at every entry point — the -straggle parser, Spec.Validate
// (both the straggle_factors axis and net.straggler_factor) and the
// network's own construction check — instead of stalling the run to its
// virtual deadline (NaN) or zeroing a link's bandwidth (Inf).
func TestNonFiniteStraggleRejected(t *testing.T) {
	for _, c := range []struct {
		flag   string
		factor float64
	}{
		{"1:NaN", math.NaN()},
		{"1:nan", math.NaN()},
		{"1:Inf", math.Inf(1)},
		{"1:+Inf", math.Inf(1)},
		{"1:-Inf", math.Inf(-1)},
		{"1:infinity", math.Inf(1)},
		{"1:1e400", math.Inf(1)},
		{"1:0", 0},
		{"1:-2", -2},
	} {
		t.Run(c.flag, func(t *testing.T) {
			_, _, err := ParseStraggle(c.flag)
			var fe *StraggleFactorError
			if !errors.As(err, &fe) {
				t.Errorf("ParseStraggle(%q) = %v, want *StraggleFactorError", c.flag, err)
			}

			sp := Spec{App: Wave2D, Cores: []int{8}, StraggleFactors: []float64{2, c.factor}}
			if _, ok := fieldsOf(t, sp.Validate())["straggle_factors[1]"]; !ok {
				t.Errorf("Validate accepted straggle_factors[1] = %v", c.factor)
			}
			if c.factor != 0 { // 0 is the default-1 sentinel on the net config
				sp = Spec{App: Wave2D, Cores: []int{8},
					Net: xnet.Config{StragglerNodes: []int{1}, StragglerFactor: c.factor}}
				if _, ok := fieldsOf(t, sp.Validate())["net.straggler_factor"]; !ok {
					t.Errorf("Validate accepted net.straggler_factor = %v", c.factor)
				}
			}

			cfg := xnet.DefaultConfig()
			cfg.StragglerNodes, cfg.StragglerFactor = []int{1}, c.factor
			m := machine.New(sim.NewShards(1, 0), machine.Config{Nodes: 2, CoresPerNode: 1, CoreSpeed: 1})
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("xnet.New accepted straggler factor %v", c.factor)
					}
				}()
				xnet.New(m, cfg)
			}()
		})
	}
	for _, ok := range []string{"", "1:4", "1,3:2.5", "0:1e-3", "2:1e300"} {
		if _, f, err := ParseStraggle(ok); err != nil || !(f > 0) || math.IsInf(f, 0) {
			t.Errorf("ParseStraggle(%q) = %v, %v; want a finite positive factor", ok, f, err)
		}
	}
}

// FuzzParseShards: the -shards parser never panics, accepts only counts
// >= 0 and the auto marker -1, and every accepted value resolves to a
// shard count in [1, nodes].
func FuzzParseShards(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		n, err := ParseShards(v)
		if err != nil {
			return
		}
		if n < 0 && n != -1 {
			t.Fatalf("ParseShards(%q) = %d: negative and not auto", v, n)
		}
		for _, nodes := range []int{1, testbedNodes, 64} {
			if r := resolveShards(n, nodes); r < 1 || r > nodes {
				t.Fatalf("resolveShards(%d, %d) = %d, outside [1, %d]", n, nodes, r, nodes)
			}
		}
	})
}

// FuzzParseStraggle: the -straggle parser never panics, and whatever it
// accepts has a finite positive factor and non-negative node IDs.
func FuzzParseStraggle(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		nodes, factor, err := ParseStraggle(v)
		if err != nil {
			return
		}
		if !(factor > 0) || math.IsInf(factor, 0) {
			t.Fatalf("ParseStraggle(%q) accepted factor %v", v, factor)
		}
		for _, n := range nodes {
			if n < 0 {
				t.Fatalf("ParseStraggle(%q) accepted node %d", v, n)
			}
		}
	})
}
