package ampi

import (
	"math"
	"testing"

	"cloudlb/internal/charm"
	"cloudlb/internal/core"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

// This file implements a complete MPI-style Jacobi solver over AMPI ranks
// — the paper's claim that "existing MPI applications can leverage the
// benefits of our approach using AMPI" — and validates it against a
// serial reference, with and without migration under interference.
//
// Decomposition: the gh-row grid is split into row bands, one band per
// rank; halo rows travel by SendRecv each iteration.

type jacobiBand struct {
	rows, cols int
	cur, next  []float64
}

// ampiJacobi runs iters Jacobi iterations over nRanks row bands of a
// gw x gh grid (boundary: top edge 1.0, rest 0.0) and returns the
// assembled grid. costPerCell is the CPU charged per cell update.
func ampiJacobi(t *testing.T, rts *charm.RTS, gw, gh, nRanks, iters int, costPerCell float64, syncEvery int) [][]float64 {
	t.Helper()
	if gh%nRanks != 0 {
		t.Fatalf("grid height %d not divisible by %d ranks", gh, nRanks)
	}
	rows := gh / nRanks
	bands := make([][]float64, nRanks)

	New(rts, "jacobi", nRanks, func(r *Rank) {
		me := r.Rank()
		b := &jacobiBand{rows: rows, cols: gw,
			cur: make([]float64, rows*gw), next: make([]float64, rows*gw)}
		for iter := 0; iter < iters; iter++ {
			// Halo exchange: up then down, with boundary values for the
			// domain edges.
			var above, below []float64
			if me > 0 {
				above = r.SendRecv(me-1, append([]float64(nil), b.cur[:gw]...), 8*gw, me-1).([]float64)
			} else {
				above = constRow(gw, 1.0) // hot top boundary
			}
			if me < r.Size()-1 {
				below = r.SendRecv(me+1, append([]float64(nil), b.cur[(rows-1)*gw:]...), 8*gw, me+1).([]float64)
			} else {
				below = constRow(gw, 0.0)
			}
			// Relax.
			at := func(x, y int) float64 {
				switch {
				case y < 0:
					return above[x]
				case y >= rows:
					return below[x]
				case x < 0, x >= gw:
					return 0
				}
				return b.cur[y*gw+x]
			}
			for y := 0; y < rows; y++ {
				for x := 0; x < gw; x++ {
					b.next[y*gw+x] = 0.25 * (at(x, y-1) + at(x, y+1) + at(x-1, y) + at(x+1, y))
				}
			}
			b.cur, b.next = b.next, b.cur
			r.Charge(float64(rows*gw) * costPerCell)
			if syncEvery > 0 && (iter+1)%syncEvery == 0 && iter+1 < iters {
				r.MigrateSync()
			}
		}
		bands[me] = append([]float64(nil), b.cur...)
	})
	return assembleOnDone(t, rts, bands, gw, rows)
}

func constRow(n int, v float64) []float64 {
	row := make([]float64, n)
	for i := range row {
		row[i] = v
	}
	return row
}

func assembleOnDone(t *testing.T, rts *charm.RTS, bands [][]float64, gw, rows int) [][]float64 {
	t.Helper()
	rts.Start()
	sh := rts.Machine().Shards()
	for !rts.Finished() && sh.Now() < 10000 {
		if err := sh.RunUntil(sh.Now() + 1); err != nil {
			t.Fatal(err)
		}
	}
	if !rts.Finished() {
		t.Fatal("AMPI Jacobi did not finish")
	}
	grid := make([][]float64, 0, len(bands)*rows)
	for _, band := range bands {
		for y := 0; y < rows; y++ {
			grid = append(grid, band[y*gw:(y+1)*gw])
		}
	}
	return grid
}

// serialJacobiRef mirrors the AMPI solver's scheme on one grid.
func serialJacobiRef(gw, gh, iters int) [][]float64 {
	cur := make([][]float64, gh)
	next := make([][]float64, gh)
	for y := range cur {
		cur[y] = make([]float64, gw)
		next[y] = make([]float64, gw)
	}
	at := func(x, y int) float64 {
		if y < 0 {
			return 1.0
		}
		if y >= gh || x < 0 || x >= gw {
			return 0
		}
		return cur[y][x]
	}
	for it := 0; it < iters; it++ {
		for y := 0; y < gh; y++ {
			for x := 0; x < gw; x++ {
				next[y][x] = 0.25 * (at(x, y-1) + at(x, y+1) + at(x-1, y) + at(x+1, y))
			}
		}
		cur, next = next, cur
	}
	return cur
}

func TestAMPIJacobiMatchesSerial(t *testing.T) {
	const gw, gh, ranks, iters = 12, 12, 4, 15
	eng, _, rts := world(t, 2, nil)
	_ = eng
	got := ampiJacobi(t, rts, gw, gh, ranks, iters, 1e-6, 0)
	want := serialJacobiRef(gw, gh, iters)
	for y := 0; y < gh; y++ {
		for x := 0; x < gw; x++ {
			if math.Abs(got[y][x]-want[y][x]) > 1e-12 {
				t.Fatalf("cell (%d,%d): got %v, want %v", x, y, got[y][x], want[y][x])
			}
		}
	}
}

func TestAMPIJacobiWithMigrationMatchesSerial(t *testing.T) {
	// Migration (MigrateSync + RefineLB) must not change the numerics.
	const gw, gh, ranks, iters = 12, 12, 6, 20
	_, _, rts := world(t, 3, &core.RefineLB{EpsilonFrac: 0.05})
	got := ampiJacobi(t, rts, gw, gh, ranks, iters, 1e-5, 5)
	want := serialJacobiRef(gw, gh, iters)
	for y := 0; y < gh; y++ {
		for x := 0; x < gw; x++ {
			if math.Abs(got[y][x]-want[y][x]) > 1e-12 {
				t.Fatalf("cell (%d,%d): got %v, want %v", x, y, got[y][x], want[y][x])
			}
		}
	}
}

func TestAMPIJacobiBenefitsFromLB(t *testing.T) {
	// The paper's AMPI claim end-to-end: an MPI-style solver under
	// interference speeds up when its ranks migrate.
	run := func(strat core.Strategy) sim.Time {
		m := machine.New(sim.NewShards(1, 0), machine.Config{Nodes: 1, CoresPerNode: 4, CoreSpeed: 1})
		n := xnet.New(m, xnet.DefaultConfig())
		rts := charm.NewRTS(charm.Config{Machine: m, Net: n, Cores: []int{0, 1, 2, 3}, Strategy: strat})
		hog := m.NewThread("hog", m.Core(2), 1)
		var loop func()
		loop = func() { hog.Run(0.5, loop) }
		loop()
		ampiJacobi(t, rts, 16, 64, 32, 60, 2e-5, 10)
		return rts.FinishTime()
	}
	noLB := run(nil)
	lb := run(&core.RefineLB{EpsilonFrac: 0.05})
	t.Logf("AMPI jacobi under interference: noLB=%.3f LB=%.3f", float64(noLB), float64(lb))
	if lb >= noLB {
		t.Fatalf("migratable ranks did not help: %v vs %v", lb, noLB)
	}
}
