package apps

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Test-only reference kernels: the straightforward cell-by-cell stencils
// over unpadded blocks, resolving every neighbor through a bounds switch
// and a map of received edges. The ghost-padded kernels must agree with
// them bit for bit.

type refWave struct {
	w, h        int
	courant     float64
	u, uPrev, n []float64
}

func (k *refWave) neighborValue(x, y int, edges map[int][]float64) float64 {
	switch {
	case y < 0:
		if e, ok := edges[dirN]; ok {
			return e[x]
		}
		return 0
	case y >= k.h:
		if e, ok := edges[dirS]; ok {
			return e[x]
		}
		return 0
	case x < 0:
		if e, ok := edges[dirW]; ok {
			return e[y]
		}
		return 0
	case x >= k.w:
		if e, ok := edges[dirE]; ok {
			return e[y]
		}
		return 0
	}
	return k.u[y*k.w+x]
}

func (k *refWave) step(edges map[int][]float64) {
	for y := 0; y < k.h; y++ {
		for x := 0; x < k.w; x++ {
			lap := k.neighborValue(x, y-1, edges) +
				k.neighborValue(x, y+1, edges) +
				k.neighborValue(x-1, y, edges) +
				k.neighborValue(x+1, y, edges) -
				4*k.u[y*k.w+x]
			k.n[y*k.w+x] = 2*k.u[y*k.w+x] - k.uPrev[y*k.w+x] + k.courant*lap
		}
	}
	k.uPrev, k.u, k.n = k.u, k.n, k.uPrev
}

type refJacobi struct {
	w, h      int
	y0        int
	cur, next []float64
	lastDelta float64
}

func (k *refJacobi) boundary(gy int) float64 {
	if gy < 0 {
		return 1.0
	}
	return 0.0
}

func (k *refJacobi) neighborValue(x, y int, edges map[int][]float64) float64 {
	switch {
	case y < 0:
		if e, ok := edges[dirN]; ok {
			return e[x]
		}
		return k.boundary(k.y0 + y)
	case y >= k.h:
		if e, ok := edges[dirS]; ok {
			return e[x]
		}
		return k.boundary(k.y0 + y)
	case x < 0:
		if e, ok := edges[dirW]; ok {
			return e[y]
		}
		return k.boundary(k.y0 + y)
	case x >= k.w:
		if e, ok := edges[dirE]; ok {
			return e[y]
		}
		return k.boundary(k.y0 + y)
	}
	return k.cur[y*k.w+x]
}

func (k *refJacobi) step(edges map[int][]float64) {
	maxDelta := 0.0
	for y := 0; y < k.h; y++ {
		for x := 0; x < k.w; x++ {
			v := 0.25 * (k.neighborValue(x, y-1, edges) +
				k.neighborValue(x, y+1, edges) +
				k.neighborValue(x-1, y, edges) +
				k.neighborValue(x+1, y, edges))
			k.next[y*k.w+x] = v
			d := v - k.cur[y*k.w+x]
			if d < 0 {
				d = -d
			}
			if d > maxDelta {
				maxDelta = d
			}
		}
	}
	k.cur, k.next = k.next, k.cur
	k.lastDelta = maxDelta
}

// Test-only accessors into the padded kernels.

func (k *WaveKernel) set(x, y int, u, prev float64) {
	k.u[ghostIdx(k.w, x, y)] = u
	k.uPrev[ghostIdx(k.w, x, y)] = prev
}

func (k *WaveKernel) prevValue(x, y int) float64 { return k.uPrev[ghostIdx(k.w, x, y)] }

func (k *JacobiKernel) set(x, y int, v float64) { k.cur[ghostIdx(k.w, x, y)] = v }

// sameBits reports whether a and b are the same float64, bit for bit. Any
// two NaNs count as equal: which payload a NaN carries out of an addition
// depends on the hardware's operand order, not on the stencil.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// kernelPair drives one padded kernel and its reference in lockstep.
type kernelPair struct {
	step    func(edges *[numDirs][]float64, ref map[int][]float64)
	compare func() error
}

func newWavePair(w, h int, r *rand.Rand) kernelPair {
	k := NewWaveKernel(64, 64, 0.4)(0, 0, 0, 0, w, h).(*WaveKernel)
	ref := &refWave{w: w, h: h, courant: k.courant,
		u: make([]float64, w*h), uPrev: make([]float64, w*h), n: make([]float64, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u, prev := r.NormFloat64(), r.NormFloat64()
			k.set(x, y, u, prev)
			ref.u[y*w+x], ref.uPrev[y*w+x] = u, prev
		}
	}
	return kernelPair{
		step: func(edges *[numDirs][]float64, m map[int][]float64) {
			k.Step(edges)
			ref.step(m)
		},
		compare: func() error {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if !sameBits(k.Value(x, y), ref.u[y*w+x]) || !sameBits(k.prevValue(x, y), ref.uPrev[y*w+x]) {
						return fmt.Errorf("wave cell (%d,%d): u %v/%v, uPrev %v/%v (padded/reference)",
							x, y, k.Value(x, y), ref.u[y*w+x], k.prevValue(x, y), ref.uPrev[y*w+x])
					}
				}
			}
			return nil
		},
	}
}

func newJacobiPair(w, h, y0 int, r *rand.Rand) kernelPair {
	k := NewJacobiKernel(64, 64)(0, 0, 0, y0, w, h).(*JacobiKernel)
	ref := &refJacobi{w: w, h: h, y0: y0, cur: make([]float64, w*h), next: make([]float64, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := r.Float64()
			k.set(x, y, v)
			ref.cur[y*w+x] = v
		}
	}
	return kernelPair{
		step: func(edges *[numDirs][]float64, m map[int][]float64) {
			k.Step(edges)
			ref.step(m)
		},
		compare: func() error {
			if !sameBits(k.LastDelta(), ref.lastDelta) {
				return fmt.Errorf("jacobi LastDelta %v, reference %v", k.LastDelta(), ref.lastDelta)
			}
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if !sameBits(k.Value(x, y), ref.cur[y*w+x]) {
						return fmt.Errorf("jacobi cell (%d,%d): %v, reference %v", x, y, k.Value(x, y), ref.cur[y*w+x])
					}
				}
			}
			return nil
		},
	}
}

// runPair steps p with fresh random edges on the directions in mask (bit
// d set = neighbor in direction d present) and compares after every
// step. special, unless it is +0, overwrites one edge cell per step.
func runPair(p kernelPair, w, h, mask, steps int, special float64, r *rand.Rand) error {
	for it := 0; it < steps; it++ {
		var edges [numDirs][]float64
		ref := map[int][]float64{}
		for d := 0; d < numDirs; d++ {
			if mask&(1<<d) == 0 {
				continue
			}
			n := w
			if d == dirW || d == dirE {
				n = h
			}
			e := make([]float64, n)
			for i := range e {
				e[i] = r.NormFloat64()
			}
			if math.Float64bits(special) != 0 {
				e[r.Intn(n)] = special
			}
			edges[d], ref[d] = e, e
		}
		p.step(&edges, ref)
		if err := p.compare(); err != nil {
			return fmt.Errorf("step %d: %w", it, err)
		}
	}
	return nil
}

// TestKernelsMatchReference is the differential oracle: every neighbor
// subset, several block shapes, random states and edges, 50 steps.
func TestKernelsMatchReference(t *testing.T) {
	shapes := [][2]int{{1, 1}, {3, 7}, {16, 16}, {64, 64}}
	for _, sh := range shapes {
		w, h := sh[0], sh[1]
		for mask := 0; mask < 1<<numDirs; mask++ {
			r := rand.New(rand.NewSource(int64(1000*w + 10*h + mask)))
			if err := runPair(newWavePair(w, h, r), w, h, mask, 50, 0, r); err != nil {
				t.Fatalf("wave %dx%d mask %04b: %v", w, h, mask, err)
			}
			for _, y0 := range []int{0, 8} {
				if err := runPair(newJacobiPair(w, h, y0, r), w, h, mask, 50, 0, r); err != nil {
					t.Fatalf("jacobi %dx%d y0=%d mask %04b: %v", w, h, y0, mask, err)
				}
			}
		}
	}
}

// FuzzKernelStep drives both kernels against their references on a
// fuzzed block shape, neighbor subset, y offset and seed; special injects
// one arbitrary float64 (NaN, ±Inf, subnormal, -0) into each step's edges.
// The seed corpus is in testdata/fuzz/FuzzKernelStep.
func FuzzKernelStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, w8, h8, mask8 uint8, top bool, seed int64, steps8 uint8, special float64) {
		w, h := int(w8%32)+1, int(h8%32)+1
		mask, steps := int(mask8%(1<<numDirs)), int(steps8%20)+1
		y0 := 4
		if top {
			y0 = 0
		}
		r := rand.New(rand.NewSource(seed))
		if err := runPair(newWavePair(w, h, r), w, h, mask, steps, special, r); err != nil {
			t.Fatalf("wave %dx%d mask %04b: %v", w, h, mask, err)
		}
		if err := runPair(newJacobiPair(w, h, y0, r), w, h, mask, steps, special, r); err != nil {
			t.Fatalf("jacobi %dx%d y0=%d mask %04b: %v", w, h, y0, mask, err)
		}
	})
}
