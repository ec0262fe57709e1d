package apps

import "math"

// WaveKernel integrates the 2D wave equation with the standard explicit
// 5-point scheme on one block:
//
//	u'' = c² ∇²u  →  u_next = 2u − u_prev + C·(N+S+E+W − 4u)
//
// with Courant number C < 0.5 for stability and zero-displacement
// (reflecting) global boundaries. The initial condition is a Gaussian
// pulse centered in the global domain, so blocks initialize consistently
// regardless of decomposition. This is the paper's Wave2D, used both as a
// measured application and as the 2-core interfering background job.
//
// Both time levels are ghost-padded (see grid.go); only u's ghost ring is
// ever filled or read. Step writes the new level over uPrev in place: a
// cell's uPrev value is read only by that cell's own update.
type WaveKernel struct {
	w, h    int
	courant float64
	u       []float64
	uPrev   []float64
}

// NewWaveKernel returns a factory for blocks of a gw x gh domain with the
// given Courant number (0.4 if courant <= 0).
func NewWaveKernel(gw, gh int, courant float64) func(bx, by, x0, y0, w, h int) Kernel {
	if courant <= 0 {
		courant = 0.4
	}
	return func(bx, by, x0, y0, w, h int) Kernel {
		n := ghostLen(w, h)
		k := &WaveKernel{
			w: w, h: h, courant: courant,
			u:     make([]float64, n),
			uPrev: make([]float64, n),
		}
		// Gaussian pulse at the domain center, at rest (uPrev = u).
		cx, cy := float64(gw)/2, float64(gh)/2
		sigma := float64(gw) / 8
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dx := float64(x0+x) + 0.5 - cx
				dy := float64(y0+y) + 0.5 - cy
				v := math.Exp(-(dx*dx + dy*dy) / (2 * sigma * sigma))
				k.u[ghostIdx(w, x, y)] = v
				k.uPrev[ghostIdx(w, x, y)] = v
			}
		}
		return k
	}
}

func (k *WaveKernel) at(x, y int) float64 { return k.u[ghostIdx(k.w, x, y)] }

// Step implements Kernel. The sums keep the order N+S+W+E−4u and
// 2u−uPrev+C·lap, so every value is bit-identical to a cell-by-cell
// evaluation of the scheme.
func (k *WaveKernel) Step(edges *[numDirs][]float64) {
	w, s, c := k.w, k.w+2, k.courant
	u := k.u
	fillGhosts(u, w, k.h, edges, 0)
	for row := s; row <= k.h*s; row += s {
		out := k.uPrev[row+1 : row+1+w] // uPrev in, uNext out
		north := u[row-s+1 : row-s+1+w][:len(out)]
		south := u[row+s+1 : row+s+1+w][:len(out)]
		west := u[row : row+w][:len(out)]
		mid := u[row+1 : row+1+w][:len(out)]
		east := u[row+2 : row+2+w][:len(out)]
		for x := range out {
			lap := north[x] + south[x] + west[x] + east[x] - 4*mid[x]
			out[x] = 2*mid[x] - out[x] + c*lap
		}
	}
	k.uPrev, k.u = k.u, k.uPrev
}

// AppendEdge implements Kernel.
func (k *WaveKernel) AppendEdge(dst []float64, d int) []float64 {
	return appendEdge(dst, k.u, k.w, k.h, d)
}

// Bytes implements Kernel: two live time levels of the unpadded block.
func (k *WaveKernel) Bytes() int { return 16 * k.w * k.h }

// Value returns u at block-local (x, y), for tests.
func (k *WaveKernel) Value(x, y int) float64 { return k.at(x, y) }

// Energy returns a discrete energy estimate of the block: kinetic term
// from the two time levels plus the potential (gradient) term. Interior
// gradients only; used by tests to check approximate conservation.
func (k *WaveKernel) Energy() float64 {
	e := 0.0
	for y := 0; y < k.h; y++ {
		for x := 0; x < k.w; x++ {
			v := k.at(x, y) - k.uPrev[ghostIdx(k.w, x, y)]
			e += v * v
			if x+1 < k.w {
				g := k.at(x+1, y) - k.at(x, y)
				e += k.courant * g * g
			}
			if y+1 < k.h {
				g := k.at(x, y+1) - k.at(x, y)
				e += k.courant * g * g
			}
		}
	}
	return e
}
