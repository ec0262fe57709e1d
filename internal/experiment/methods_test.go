package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"cloudlb/internal/xnet"
)

// spelledOut writes every default the Spec elides out by hand — not via
// normalized, which is what is under test.
func spelledOut(sp Spec) Spec {
	if len(sp.Strategies) == 0 {
		sp.Strategies = []StrategyKind{NoLB}
	}
	if len(sp.Seeds) == 0 {
		sp.Seeds = []int64{1}
	}
	sp.BGWeight, sp.BGIters, sp.SyncEvery = 1, 600, 10
	sp.CharesPerCore, sp.StencilBlock = 32, 16
	sp.EpsilonFrac, sp.DiffRounds, sp.DiffTol = 0.02, 16, 0.05
	sp.MaxVirtualTime = 10000
	sp.Net = xnet.DefaultConfig()
	return sp
}

// artifacts is a method Output in its stored form: rows.json, then each
// table's CSV in name order, then the trace.
func artifacts(t *testing.T, out Output) []byte {
	t.Helper()
	var buf bytes.Buffer
	rows, err := json.Marshal(out.Rows)
	if err != nil {
		t.Fatalf("rows do not encode (NaN?): %v", err)
	}
	buf.Write(rows)
	names := make([]string, 0, len(out.Tables))
	for name := range out.Tables {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		buf.WriteString("\n" + name + "\n")
		if err := out.Tables[name].WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	buf.Write(out.Trace)
	return buf.Bytes()
}

// TestElidedDefaultsComputeAlike is the cache-correctness contract of
// the registry: for every method, a Spec with its defaults elided and the
// same Spec with them spelled out share a Hash — one cache entry — so
// they must also compute byte-identical artifacts, free of NaN rows.
func TestElidedDefaultsComputeAlike(t *testing.T) {
	elided := map[string]Spec{
		"scenarios":  {App: Jacobi2D, Cores: []int{4}, Scale: quickScale},
		"evaluate":   {App: Jacobi2D, Cores: []int{4}, Scale: quickScale},
		"compare":    {App: Jacobi2D, Cores: []int{4}, Scale: quickScale},
		"sweep":      {App: Jacobi2D, Cores: []int{4}, Scale: quickScale, EpsFracs: []float64{0.02}, Periods: []int{10}},
		"elasticity": {App: Wave2D, Cores: []int{4}, Scale: quickScale, Faults: Fig5Schedule(4, quickScale)},
		"net":        {App: Wave2D, Cores: []int{4}, Scale: quickScale, DropPcts: []float64{0}, StraggleFactors: []float64{1}},
	}
	for _, name := range Methods() {
		t.Run(name, func(t *testing.T) {
			sp, ok := elided[name]
			if !ok {
				t.Fatalf("no test Spec for registered method %q", name)
			}
			full := spelledOut(sp)
			if sp.Hash() != full.Hash() {
				t.Fatalf("elided and spelled-out defaults hash differently")
			}
			a, err := sp.Run(context.Background(), name, Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := full.Run(context.Background(), name, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ab, bb := artifacts(t, a), artifacts(t, b)
			if !bytes.Equal(ab, bb) {
				t.Fatalf("same hash, different artifacts:\nelided:      %s\nspelled out: %s", ab, bb)
			}
			if bytes.Contains(ab, []byte("NaN")) {
				t.Fatalf("artifacts carry NaN: %s", ab)
			}
		})
	}
}

// TestSpecNetAppliesToEveryMethod: Spec.Net is part of the hash, so it
// must reach every scenario of every method that does not sweep the
// network itself — a lossy network changes the numbers, not just the
// cache key.
func TestSpecNetAppliesToEveryMethod(t *testing.T) {
	sp := Spec{App: Wave2D, Cores: []int{8}, Scale: quickScale, EpsFracs: []float64{0.02}, Periods: []int{10}}
	lossy := sp
	lossy.Net = xnet.Config{DropPct: 10, Seed: 3}
	for _, name := range []string{"scenarios", "evaluate", "compare", "sweep", "elasticity"} {
		batch, err := lossy.Batch(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range batch {
			if s.Net.DropPct != 10 {
				t.Fatalf("%s: scenario %d runs on %+v, want the Spec's lossy net", name, i, s.Net)
			}
		}
	}
	a, err := sp.Run(context.Background(), "evaluate", Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := lossy.Run(context.Background(), "evaluate", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(artifacts(t, a), artifacts(t, b)) {
		t.Error("evaluate: 10% packet loss changed nothing")
	}
}

// TestRunRejectsUnknownMethodAndBadShape: Run validates before it
// simulates, with the same field errors the service returns.
func TestRunRejectsUnknownMethodAndBadShape(t *testing.T) {
	sp := Spec{App: Jacobi2D, Cores: []int{4, 8}, Scale: quickScale}
	if _, err := sp.Run(context.Background(), "explode", Options{}); err == nil {
		t.Fatal("unknown method accepted")
	}
	_, err := sp.Run(context.Background(), "compare", Options{})
	verr, ok := err.(*ValidationError)
	if !ok || len(verr.Fields) != 1 || verr.Fields[0].Field != "cores" {
		t.Fatalf("compare over two core counts: err = %v, want one cores field error", err)
	}
}
