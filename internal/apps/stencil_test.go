package apps

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cloudlb/internal/charm"
	"cloudlb/internal/core"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

func testRTS(t *testing.T, nodes, coresPer int) (*sim.Engine, *charm.RTS) {
	t.Helper()
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := machine.New(sh, machine.Config{Nodes: nodes, CoresPerNode: coresPer, CoreSpeed: 1})
	n := xnet.New(m, xnet.DefaultConfig())
	cores := make([]int, m.NumCores())
	for i := range cores {
		cores[i] = i
	}
	return eng, charm.NewRTS(charm.Config{Machine: m, Net: n, Cores: cores})
}

// serialJacobi runs the reference implementation: gw x gh grid, zero
// initial interior, top boundary 1.0, others 0.
func serialJacobi(gw, gh, iters int) []float64 {
	cur := make([]float64, gw*gh)
	next := make([]float64, gw*gh)
	get := func(x, y int) float64 {
		if y < 0 {
			return 1.0
		}
		if y >= gh || x < 0 || x >= gw {
			return 0.0
		}
		return cur[y*gw+x]
	}
	for it := 0; it < iters; it++ {
		for y := 0; y < gh; y++ {
			for x := 0; x < gw; x++ {
				next[y*gw+x] = 0.25 * (get(x, y-1) + get(x, y+1) + get(x-1, y) + get(x+1, y))
			}
		}
		cur, next = next, cur
	}
	return cur
}

// gatherJacobi assembles the distributed grid from the app's kernels.
func gatherJacobi(app *StencilApp, gw, gh, cx, cy int) []float64 {
	out := make([]float64, gw*gh)
	bw, bh := gw/cx, gh/cy
	for by := 0; by < cy; by++ {
		for bx := 0; bx < cx; bx++ {
			k := app.Kernel(bx, by).(*JacobiKernel)
			for y := 0; y < bh; y++ {
				for x := 0; x < bw; x++ {
					out[(by*bh+y)*gw+(bx*bw+x)] = k.Value(x, y)
				}
			}
		}
	}
	return out
}

func TestJacobiMatchesSerialReference(t *testing.T) {
	const gw, gh, cx, cy, iters = 16, 16, 2, 2, 12
	eng, rts := testRTS(t, 1, 4)
	app := NewStencilApp(rts, StencilConfig{
		Array: "jacobi", GridW: gw, GridH: gh, CharesX: cx, CharesY: cy,
		Iters: iters, CostPerCell: 1e-6,
		NewKernel: NewJacobiKernel(gw, gh),
	})
	rts.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !rts.Finished() {
		t.Fatal("jacobi run did not finish")
	}
	want := serialJacobi(gw, gh, iters)
	got := gatherJacobi(app, gw, gh, cx, cy)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("cell %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestJacobiMatchesSerialUnderUnevenDecomposition(t *testing.T) {
	// 4x1 and 1x4 decompositions must agree with the serial result too.
	const gw, gh, iters = 16, 16, 9
	want := serialJacobi(gw, gh, iters)
	for _, shape := range [][2]int{{4, 1}, {1, 4}, {4, 4}} {
		cx, cy := shape[0], shape[1]
		eng, rts := testRTS(t, 1, 4)
		app := NewStencilApp(rts, StencilConfig{
			Array: "jacobi", GridW: gw, GridH: gh, CharesX: cx, CharesY: cy,
			Iters: iters, CostPerCell: 1e-6,
			NewKernel: NewJacobiKernel(gw, gh),
		})
		rts.Start()
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		got := gatherJacobi(app, gw, gh, cx, cy)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("decomp %dx%d cell %d: got %v, want %v", cx, cy, i, got[i], want[i])
			}
		}
	}
}

func TestJacobiWithAtSyncMatchesSerial(t *testing.T) {
	// AtSync barriers (with a strategy that does nothing) must not change
	// the numerics.
	const gw, gh, cx, cy, iters = 16, 16, 2, 2, 12
	want := serialJacobi(gw, gh, iters)
	eng, rts := testRTSWithStrategy(t)
	app := NewStencilApp(rts, StencilConfig{
		Array: "jacobi", GridW: gw, GridH: gh, CharesX: cx, CharesY: cy,
		Iters: iters, SyncEvery: 4, CostPerCell: 1e-6,
		NewKernel: NewJacobiKernel(gw, gh),
	})
	rts.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	got := gatherJacobi(app, gw, gh, cx, cy)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("cell %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if rts.LBSteps() == 0 {
		t.Fatal("no LB steps despite SyncEvery")
	}
}

func testRTSWithStrategy(t *testing.T) (*sim.Engine, *charm.RTS) {
	t.Helper()
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := machine.New(sh, machine.Config{Nodes: 1, CoresPerNode: 4, CoreSpeed: 1})
	n := xnet.New(m, xnet.DefaultConfig())
	return eng, charm.NewRTS(charm.Config{
		Machine: m, Net: n, Cores: []int{0, 1, 2, 3},
		Strategy: &core.RefineLB{EpsilonFrac: 0.05},
	})
}

func TestJacobiConverges(t *testing.T) {
	const gw, gh, cx, cy = 32, 32, 4, 4
	eng, rts := testRTS(t, 1, 4)
	app := NewStencilApp(rts, StencilConfig{
		Array: "jacobi", GridW: gw, GridH: gh, CharesX: cx, CharesY: cy,
		Iters: 400, CostPerCell: 1e-7,
		NewKernel: NewJacobiKernel(gw, gh),
	})
	rts.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// After many iterations the update deltas shrink and values near the
	// hot top edge approach 1.
	k := app.Kernel(0, 0).(*JacobiKernel)
	if k.LastDelta() > 1e-3 {
		t.Fatalf("delta %v after 400 iters, expected convergence trend", k.LastDelta())
	}
	if v := k.Value(gw/(2*cx), 0); v < 0.5 {
		t.Fatalf("near-boundary value %v, want > 0.5 (boundary is 1.0)", v)
	}
}

// serialWave mirrors WaveKernel's scheme globally.
func serialWave(gw, gh, iters int, courant float64) []float64 {
	u := make([]float64, gw*gh)
	up := make([]float64, gw*gh)
	un := make([]float64, gw*gh)
	cxf, cyf := float64(gw)/2, float64(gh)/2
	sigma := float64(gw) / 8
	for y := 0; y < gh; y++ {
		for x := 0; x < gw; x++ {
			dx := float64(x) + 0.5 - cxf
			dy := float64(y) + 0.5 - cyf
			v := math.Exp(-(dx*dx + dy*dy) / (2 * sigma * sigma))
			u[y*gw+x] = v
			up[y*gw+x] = v
		}
	}
	get := func(x, y int) float64 {
		if x < 0 || x >= gw || y < 0 || y >= gh {
			return 0
		}
		return u[y*gw+x]
	}
	for it := 0; it < iters; it++ {
		for y := 0; y < gh; y++ {
			for x := 0; x < gw; x++ {
				lap := get(x, y-1) + get(x, y+1) + get(x-1, y) + get(x+1, y) - 4*get(x, y)
				un[y*gw+x] = 2*get(x, y) - up[y*gw+x] + courant*lap
			}
		}
		up, u, un = u, un, up
	}
	return u
}

func TestWaveMatchesSerialReference(t *testing.T) {
	const gw, gh, cx, cy, iters = 16, 16, 4, 2, 15
	eng, rts := testRTS(t, 1, 4)
	app := NewStencilApp(rts, StencilConfig{
		Array: "wave", GridW: gw, GridH: gh, CharesX: cx, CharesY: cy,
		Iters: iters, CostPerCell: 1e-6,
		NewKernel: NewWaveKernel(gw, gh, 0.4),
	})
	rts.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := serialWave(gw, gh, iters, 0.4)
	bw, bh := gw/cx, gh/cy
	for by := 0; by < cy; by++ {
		for bx := 0; bx < cx; bx++ {
			k := app.Kernel(bx, by).(*WaveKernel)
			for y := 0; y < bh; y++ {
				for x := 0; x < bw; x++ {
					got := k.Value(x, y)
					w := want[(by*bh+y)*gw+(bx*bw+x)]
					if math.Abs(got-w) > 1e-12 {
						t.Fatalf("block (%d,%d) cell (%d,%d): got %v, want %v", bx, by, x, y, got, w)
					}
				}
			}
		}
	}
}

func TestWaveEnergyRoughlyConserved(t *testing.T) {
	const gw, gh, cx, cy = 32, 32, 2, 2
	energyAt := func(iters int) float64 {
		eng, rts := testRTS(t, 1, 4)
		app := NewStencilApp(rts, StencilConfig{
			Array: "wave", GridW: gw, GridH: gh, CharesX: cx, CharesY: cy,
			Iters: iters, CostPerCell: 1e-7,
			NewKernel: NewWaveKernel(gw, gh, 0.4),
		})
		rts.Start()
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		e := 0.0
		for by := 0; by < cy; by++ {
			for bx := 0; bx < cx; bx++ {
				e += app.Kernel(bx, by).(*WaveKernel).Energy()
			}
		}
		return e
	}
	e10, e100 := energyAt(10), energyAt(100)
	if e10 <= 0 || e100 <= 0 {
		t.Fatalf("degenerate energies %v %v", e10, e100)
	}
	// Explicit scheme with reflecting boundaries: the discrete energy
	// stays within a factor ~2 over this horizon (no blow-up, no decay
	// to zero).
	if ratio := e100 / e10; ratio > 2 || ratio < 0.5 {
		t.Fatalf("energy ratio %v between iters 10 and 100; scheme unstable?", ratio)
	}
}

func TestStencilInvalidConfigPanics(t *testing.T) {
	_, rts := testRTS(t, 1, 1)
	cases := []StencilConfig{
		{Array: "a", GridW: 0, GridH: 8, CharesX: 1, CharesY: 1, Iters: 1},
		{Array: "b", GridW: 10, GridH: 8, CharesX: 3, CharesY: 1, Iters: 1}, // not divisible
		{Array: "c", GridW: 8, GridH: 8, CharesX: 1, CharesY: 1, Iters: 0},
		{Array: "d", GridW: 8, GridH: 8, CharesX: 1, CharesY: 1, Iters: 1}, // nil kernel
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			if i != 3 {
				cfg.NewKernel = NewJacobiKernel(cfg.GridW, cfg.GridH)
			}
			NewStencilApp(rts, cfg)
		}()
	}
}

func TestJacobiAdaptiveConvergence(t *testing.T) {
	// With ConvergeEps set, the run stops as soon as the max-reduced
	// residual falls below the threshold — well before the configured
	// iteration bound on this small grid.
	const gw, gh, cx, cy = 16, 16, 2, 2
	eng, rts := testRTSWithStrategy(t)
	app := NewStencilApp(rts, StencilConfig{
		Array: "jacobi", GridW: gw, GridH: gh, CharesX: cx, CharesY: cy,
		Iters: 10000, SyncEvery: 20, CostPerCell: 1e-7,
		ConvergeEps: 1e-4,
		NewKernel:   NewJacobiKernel(gw, gh),
	})
	rts.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !rts.Finished() {
		t.Fatal("converging run did not finish")
	}
	stopped := app.Iterations(0, 0)
	if stopped >= 10000 {
		t.Fatal("run did not stop early despite convergence")
	}
	if stopped%20 != 0 {
		t.Fatalf("stopped at %d, not a sync boundary", stopped)
	}
	// Every chare stopped at the same iteration.
	for by := 0; by < cy; by++ {
		for bx := 0; bx < cx; bx++ {
			if app.Iterations(bx, by) != stopped {
				t.Fatalf("chare (%d,%d) stopped at %d, others at %d", bx, by, app.Iterations(bx, by), stopped)
			}
		}
	}
	// And the residual is actually below the threshold.
	if r := app.Kernel(0, 0).(*JacobiKernel).Residual(); r >= 1e-4 {
		t.Fatalf("residual %v above threshold at stop", r)
	}
	t.Logf("converged after %d iterations", stopped)
}

func TestConvergeEpsRequiresSyncEvery(t *testing.T) {
	_, rts := testRTS(t, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("ConvergeEps without SyncEvery did not panic")
		}
	}()
	NewStencilApp(rts, StencilConfig{
		Array: "x", GridW: 8, GridH: 8, CharesX: 1, CharesY: 1,
		Iters: 10, ConvergeEps: 1e-3,
		NewKernel: NewJacobiKernel(8, 8),
	})
}

func TestStencilSingleChare(t *testing.T) {
	// 1x1 decomposition: no neighbors, all iterations drain in a burst.
	const gw, gh, iters = 8, 8, 5
	eng, rts := testRTS(t, 1, 1)
	app := NewStencilApp(rts, StencilConfig{
		Array: "jacobi", GridW: gw, GridH: gh, CharesX: 1, CharesY: 1,
		Iters: iters, CostPerCell: 1e-6,
		NewKernel: NewJacobiKernel(gw, gh),
	})
	rts.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := serialJacobi(gw, gh, iters)
	got := gatherJacobi(app, gw, gh, 1, 1)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("cell %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// An edge is accepted only for the receiver's current iteration or the
// next one; anything further ahead means the exchange protocol broke and
// must fail loudly, naming the chare and both iterations.
func TestStencilEdgeWindow(t *testing.T) {
	_, rts := testRTS(t, 1, 2)
	app := NewStencilApp(rts, StencilConfig{
		Array: "wave", GridW: 8, GridH: 4, CharesX: 2, CharesY: 1,
		Iters: 10, CostPerCell: 1e-6,
		NewKernel: NewWaveKernel(8, 4, 0.4),
	})
	c := app.Chare(0, 0)
	deliver := func(iter int) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		// The chare's east neighbor sends westward. With the current
		// iteration's edge still missing, Recv returns before touching
		// the (nil) context.
		c.Recv(nil, &edgeMsg{Iter: iter, Dir: dirW, Data: make([]float64, 4)})
		return ""
	}
	if msg := deliver(1); msg != "" {
		t.Fatalf("edge one iteration ahead rejected: %s", msg)
	}
	if msg := deliver(1); !strings.Contains(msg, "duplicate edge") {
		t.Fatalf("duplicate edge: got panic %q, want a duplicate-edge panic", msg)
	}
	msg := deliver(2)
	for _, want := range []string{"chare 0", "iteration 0", "iteration 2"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("edge two iterations ahead: panic %q does not mention %q", msg, want)
		}
	}
}
