package apps

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Jacobi's update is an average of neighbors, so with boundary
// values in [0,1] and interior in [0,1], every updated cell stays in
// [0,1] (discrete maximum principle).
func TestQuickJacobiMaximumPrinciple(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed uint32) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		k := NewJacobiKernel(16, 16)(0, 0, 4, 4, 8, 8).(*JacobiKernel)
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				k.set(x, y, r.Float64())
			}
		}
		var edges [numDirs][]float64
		for d := range edges {
			e := make([]float64, 8)
			for i := range e {
				e[i] = r.Float64()
			}
			edges[d] = e
		}
		k.Step(&edges)
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				v := k.Value(x, y)
				if v < 0 || v > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: the wave update is linear, so stepping the sum of two states
// equals the sum of stepping each (superposition).
func TestQuickWaveSuperposition(t *testing.T) {
	mk := func(r *rand.Rand) *WaveKernel {
		k := NewWaveKernel(8, 8, 0.4)(0, 0, 0, 0, 8, 8).(*WaveKernel)
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				k.set(x, y, r.NormFloat64(), r.NormFloat64())
			}
		}
		return k
	}
	f := func(seed uint32) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		a, b := mk(r), mk(r)
		sum := NewWaveKernel(8, 8, 0.4)(0, 0, 0, 0, 8, 8).(*WaveKernel)
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				sum.set(x, y, a.Value(x, y)+b.Value(x, y), a.prevValue(x, y)+b.prevValue(x, y))
			}
		}
		var edges [numDirs][]float64 // physical boundary on all sides
		a.Step(&edges)
		b.Step(&edges)
		sum.Step(&edges)
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				if math.Abs(sum.Value(x, y)-(a.Value(x, y)+b.Value(x, y))) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the pair force is antisymmetric — what a exerts on b is the
// negation of what b exerts on a (Newton's third law, which the MD code
// relies on for own-own pairs).
func TestQuickLJForceAntisymmetric(t *testing.T) {
	cfg := Mol3DConfig{Epsilon: 1, Sigma: 0.25, CellSize: 1, Cutoff: 1}
	app := &Mol3DApp{cfg: cfg.withDefaults()}
	cell := &mdChare{app: app}
	f := func(ax, ay, az, bx, by, bz int16) bool {
		a := Particle{X: float64(ax) / 8192, Y: float64(ay) / 8192, Z: float64(az) / 8192}
		b := Particle{X: float64(bx) / 8192, Y: float64(by) / 8192, Z: float64(bz) / 8192}
		fx1, fy1, fz1, ok1 := cell.ljForce(a, b, 1)
		fx2, fy2, fz2, ok2 := cell.ljForce(b, a, 1)
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return true
		}
		return fx1 == -fx2 && fy1 == -fy2 && fz1 == -fz2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the pair force is zero at or beyond the cutoff.
func TestQuickLJForceCutoff(t *testing.T) {
	cfg := Mol3DConfig{Epsilon: 1, Sigma: 0.25, CellSize: 1, Cutoff: 0.5}
	app := &Mol3DApp{cfg: cfg.withDefaults()}
	cell := &mdChare{app: app}
	rc2 := 0.25
	f := func(d uint16) bool {
		dist := 0.5 + float64(d)/65536 // >= cutoff
		a := Particle{}
		b := Particle{X: dist}
		_, _, _, ok := cell.ljForce(a, b, rc2)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendEdge copies — mutating the returned slice must not
// alter kernel state (the stencil chare relies on this to send edges
// while continuing to step).
func TestQuickEdgeIsCopy(t *testing.T) {
	for _, mkKernel := range []func() Kernel{
		func() Kernel { return NewJacobiKernel(8, 8)(0, 0, 0, 0, 8, 8) },
		func() Kernel { return NewWaveKernel(8, 8, 0.4)(0, 0, 0, 0, 8, 8) },
	} {
		k := mkKernel()
		for d := 0; d < numDirs; d++ {
			e := k.AppendEdge(nil, d)
			before := k.AppendEdge(nil, d)
			for i := range e {
				e[i] = 1e9
			}
			after := k.AppendEdge(nil, d)
			for i := range after {
				if after[i] != before[i] {
					t.Fatalf("dir %d: mutating the returned edge changed kernel state", d)
				}
			}
		}
	}
}
