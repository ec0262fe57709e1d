package apps

// JacobiKernel performs 5-point Jacobi relaxation of the Laplace equation
// on one block of the global grid. The global boundary condition is
// Dirichlet: the top edge of the domain is held at 1.0, the other three
// edges at 0.0, so the solution converges to the harmonic interpolation.
// Both grids are ghost-padded (see grid.go).
type JacobiKernel struct {
	w, h int // block size
	// north is the ghost row without a north neighbor: the Dirichlet
	// value 1.0 on the global top edge, 0 elsewhere.
	north float64
	cur   []float64
	next  []float64
	// lastDelta is the max absolute update of the latest Step, for
	// convergence monitoring.
	lastDelta float64
}

// NewJacobiKernel builds the block covering [x0,x0+w) x [y0,y0+h) of a
// gw x gh grid, initialized to zero.
func NewJacobiKernel(gw, gh int) func(bx, by, x0, y0, w, h int) Kernel {
	return func(bx, by, x0, y0, w, h int) Kernel {
		k := &JacobiKernel{
			w: w, h: h,
			cur:  make([]float64, ghostLen(w, h)),
			next: make([]float64, ghostLen(w, h)),
		}
		if y0 == 0 {
			k.north = 1.0 // top edge held hot
		}
		return k
	}
}

func (k *JacobiKernel) at(x, y int) float64 { return k.cur[ghostIdx(k.w, x, y)] }

// Step implements Kernel: next = 0.25·(N+S+W+E), summed in that order.
func (k *JacobiKernel) Step(edges *[numDirs][]float64) {
	w, s := k.w, k.w+2
	cur, next := k.cur, k.next
	fillGhosts(cur, w, k.h, edges, k.north)
	maxDelta := 0.0
	for row := s; row <= k.h*s; row += s {
		out := next[row+1 : row+1+w]
		up := cur[row-s+1 : row-s+1+w][:len(out)]
		down := cur[row+s+1 : row+s+1+w][:len(out)]
		west := cur[row : row+w][:len(out)]
		mid := cur[row+1 : row+1+w][:len(out)]
		east := cur[row+2 : row+2+w][:len(out)]
		for x := range out {
			v := 0.25 * (up[x] + down[x] + west[x] + east[x])
			out[x] = v
			d := v - mid[x]
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

// AppendEdge implements Kernel.
func (k *JacobiKernel) AppendEdge(dst []float64, d int) []float64 {
	return appendEdge(dst, k.cur, k.w, k.h, d)
}

// Bytes implements Kernel: the unpadded block.
func (k *JacobiKernel) Bytes() int { return 8 * k.w * k.h }

// LastDelta returns the largest cell update of the most recent Step.
func (k *JacobiKernel) LastDelta() float64 { return k.lastDelta }

// Residual implements ResidualKernel: Jacobi's convergence measure is the
// largest cell update of the latest iteration.
func (k *JacobiKernel) Residual() float64 { return k.lastDelta }

// Value returns the current value at block-local (x, y), for tests.
func (k *JacobiKernel) Value(x, y int) float64 { return k.at(x, y) }
