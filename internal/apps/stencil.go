// Package apps implements the paper's three evaluation applications as
// chare arrays over the charm runtime:
//
//   - Jacobi2D: iterative 5-point Jacobi relaxation of the Laplace
//     equation on a 2D grid.
//   - Wave2D: the tightly coupled 5-point stencil wave-equation code the
//     paper uses both as a subject and as the interfering background job.
//   - Mol3D: a classical molecular dynamics mini-app with cell-list
//     decomposition and a skewed particle distribution, giving the
//     application-internal load imbalance the paper describes.
//
// The kernels perform real numerical work; the CPU cost charged to the
// simulated core is proportional to the work actually done (cells updated,
// pair interactions computed), so load shape and load dynamics are
// faithful even though absolute speed is a model parameter.
package apps

import (
	"fmt"
	"strconv"
	"strings"

	"cloudlb/internal/charm"
)

// Direction indices for 2D neighbor exchange.
const (
	dirN = iota
	dirS
	dirW
	dirE
	numDirs
)

func opposite(d int) int {
	switch d {
	case dirN:
		return dirS
	case dirS:
		return dirN
	case dirW:
		return dirE
	case dirE:
		return dirW
	}
	panic("apps: bad direction")
}

// ResidualKernel is implemented by kernels that can report a convergence
// residual (e.g. the largest cell update of the last Step); required when
// StencilConfig.ConvergeEps is set.
type ResidualKernel interface {
	Kernel
	Residual() float64
}

// Kernel is the numerical core of a 2D stencil application, owning one
// chare's block of the global grid.
type Kernel interface {
	// Step advances one iteration given the ghost edges received for it,
	// indexed by direction; a nil slot is a physical boundary. The kernel
	// copies what it needs before returning and keeps no reference.
	Step(edges *[numDirs][]float64)
	// AppendEdge appends the block's current boundary values facing
	// direction d to dst and returns the result, for the neighbor there.
	AppendEdge(dst []float64, d int) []float64
	// Bytes returns the serialized size of the kernel state.
	Bytes() int
}

// StencilConfig describes a 2D stencil run.
type StencilConfig struct {
	// Array is the chare array name (e.g. "jacobi", "wave").
	Array string
	// GridW, GridH are the global grid dimensions in cells.
	GridW, GridH int
	// CharesX, CharesY decompose the grid into CharesX*CharesY blocks.
	CharesX, CharesY int
	// Iters is the number of iterations to run.
	Iters int
	// SyncEvery inserts an AtSync load balancing point every so many
	// iterations (0 = never).
	SyncEvery int
	// CostPerCell is the CPU seconds charged per cell update.
	CostPerCell float64
	// CostScale, when non-nil, multiplies a chare's per-iteration cost by
	// a chare-specific factor — used to model per-core measurement noise
	// and mild application heterogeneity across repeated runs.
	CostScale func(chareIndex int) float64
	// ConvergeEps, when positive, enables adaptive termination: every
	// SyncEvery iterations the chares max-reduce their kernels' residual
	// (the Kernel must implement Residual); once it drops below
	// ConvergeEps, all chares stop together at the next sync boundary.
	ConvergeEps float64
	// NewKernel builds the block kernel for the chare at block (bx, by)
	// covering [x0,x0+w) x [y0,y0+h) of the global grid.
	NewKernel func(bx, by, x0, y0, w, h int) Kernel
}

// StencilApp wires a stencil application into a runtime.
type StencilApp struct {
	cfg    StencilConfig
	rts    *charm.RTS
	chares []*stencilChare
}

// NewStencilApp registers the chare array on the runtime. Call before
// rts.Start.
func NewStencilApp(rts *charm.RTS, cfg StencilConfig) *StencilApp {
	if cfg.GridW <= 0 || cfg.GridH <= 0 || cfg.CharesX <= 0 || cfg.CharesY <= 0 {
		panic("apps: invalid stencil dimensions")
	}
	if cfg.GridW%cfg.CharesX != 0 || cfg.GridH%cfg.CharesY != 0 {
		panic(fmt.Sprintf("apps: grid %dx%d not divisible by chares %dx%d",
			cfg.GridW, cfg.GridH, cfg.CharesX, cfg.CharesY))
	}
	if cfg.Iters <= 0 {
		panic("apps: iterations must be positive")
	}
	if cfg.NewKernel == nil {
		panic("apps: NewKernel required")
	}
	if cfg.ConvergeEps > 0 && cfg.SyncEvery <= 0 {
		panic("apps: ConvergeEps requires SyncEvery (convergence is checked at sync boundaries)")
	}
	app := &StencilApp{cfg: cfg, rts: rts}
	n := cfg.CharesX * cfg.CharesY
	app.chares = make([]*stencilChare, n)
	bw := cfg.GridW / cfg.CharesX
	bh := cfg.GridH / cfg.CharesY
	rts.NewArray(cfg.Array, n, func(i int) charm.Chare {
		bx, by := i%cfg.CharesX, i/cfg.CharesX
		c := &stencilChare{
			app: app, index: i, bx: bx, by: by,
			kernel: cfg.NewKernel(bx, by, bx*bw, by*bh, bw, bh),
		}
		app.chares[i] = c
		return c
	})
	return app
}

// Chare returns the block chare at (bx, by) for inspection in tests.
func (a *StencilApp) Chare(bx, by int) *stencilChare {
	return a.chares[by*a.cfg.CharesX+bx]
}

// Kernel returns the kernel of block (bx, by).
func (a *StencilApp) Kernel(bx, by int) Kernel { return a.Chare(bx, by).kernel }

// Iterations returns the completed iteration count of block (bx, by).
func (a *StencilApp) Iterations(bx, by int) int { return a.Chare(bx, by).iter }

// edgeMsg carries one ghost edge. It travels as a pointer into the
// sender's outbox, so a send boxes nothing.
type edgeMsg struct {
	Iter int
	Dir  int // direction from the sender's point of view
	Data []float64
}

// edgeSet collects the edges received for one iteration, indexed by the
// receiving side.
type edgeSet struct {
	edges [numDirs][]float64
	n     int
}

// stencilChare runs one block of the stencil.
//
// Edge buffers are two-deep rings indexed by iteration&1. A neighbor runs
// at most one iteration ahead (it needs this chare's edge for iteration k
// before it can send its own for k+1), so only iterations iter and iter+1
// can be pending in inbox. The same bound makes outbox reuse safe: this
// chare writes its iteration k+2 payload only after finishing iteration
// k+1, which needed each neighbor's k+1 edge, which each neighbor sent
// only after its Step for k had copied this chare's k payload. The chain
// runs through message delivery, so it holds across shards too.
type stencilChare struct {
	app    *StencilApp
	index  int
	bx, by int
	kernel Kernel

	iter     int
	atSync   bool // between AtSync and Resume; no stepping
	stopAt   int  // converged: finish before computing this iteration (0 = run to Iters)
	finished bool // Done has been signaled
	inbox    [2]edgeSet
	outbox   [2][numDirs]edgeMsg
	nbrs     []int // cached neighbors(); the decomposition never changes
}

// PackSize implements charm.Chare.
func (c *stencilChare) PackSize() int { return c.kernel.Bytes() + 256 }

// neighbors returns the directions that have a neighboring chare. The
// block layout is fixed for the run, so the list is computed once per
// chare; it is consulted twice per iteration on the simulation hot path.
func (c *stencilChare) neighbors() []int {
	if c.nbrs != nil {
		return c.nbrs
	}
	ds := make([]int, 0, numDirs)
	if c.by > 0 {
		ds = append(ds, dirN)
	}
	if c.by < c.app.cfg.CharesY-1 {
		ds = append(ds, dirS)
	}
	if c.bx > 0 {
		ds = append(ds, dirW)
	}
	if c.bx < c.app.cfg.CharesX-1 {
		ds = append(ds, dirE)
	}
	c.nbrs = ds
	return ds
}

func (c *stencilChare) neighborID(d int) charm.ChareID {
	nx, ny := c.bx, c.by
	switch d {
	case dirN:
		ny--
	case dirS:
		ny++
	case dirW:
		nx--
	case dirE:
		nx++
	}
	return charm.ChareID{Array: c.app.cfg.Array, Index: ny*c.app.cfg.CharesX + nx}
}

// Recv implements charm.Chare.
func (c *stencilChare) Recv(ctx *charm.Ctx, data interface{}) float64 {
	switch m := data.(type) {
	case charm.Start:
		c.sendEdges(ctx)
		return c.drainReady(ctx)
	case charm.Resume:
		c.atSync = false
		c.sendEdges(ctx)
		return c.drainReady(ctx)
	case *edgeMsg:
		if m.Iter != c.iter && m.Iter != c.iter+1 {
			panic(fmt.Sprintf("apps: chare %d at iteration %d got an edge for iteration %d; neighbors run at most one iteration ahead",
				c.index, c.iter, m.Iter))
		}
		set := &c.inbox[m.Iter&1]
		recvDir := opposite(m.Dir)
		if set.edges[recvDir] != nil {
			panic(fmt.Sprintf("apps: duplicate edge iter=%d dir=%d at chare %d", m.Iter, recvDir, c.index))
		}
		set.edges[recvDir] = m.Data
		set.n++
		return c.drainReady(ctx)
	case charm.ReductionResult:
		if c.app.cfg.ConvergeEps > 0 && strings.HasPrefix(m.Tag, residualTagPrefix) &&
			m.Value < c.app.cfg.ConvergeEps && c.stopAt == 0 {
			// Converged: every chare derives the same stop point from
			// the reduction round, one sync period past the converged
			// measurement. The strategy's AtSync barrier guarantees the
			// result arrives right after Resume at that round's
			// boundary; the check below turns any violation into a loud
			// failure instead of a silent deadlock.
			round, err := strconv.Atoi(m.Tag[len(residualTagPrefix):])
			if err != nil {
				panic(fmt.Sprintf("apps: malformed residual tag %q", m.Tag))
			}
			c.stopAt = (round + 1) * c.app.cfg.SyncEvery
			if c.iter > c.stopAt {
				panic(fmt.Sprintf("apps: chare %d already past convergence stop point %d (iter %d); ConvergeEps requires a load balancing strategy", c.index, c.stopAt, c.iter))
			}
			return c.drainReady(ctx)
		}
		return 0
	}
	panic(fmt.Sprintf("apps: stencil chare got unexpected message %T", data))
}

const residualTagPrefix = "stencil-residual:"

// limit returns the iteration bound currently in force: the configured
// count, or an earlier convergence stop point.
func (c *stencilChare) limit() int {
	if c.stopAt > 0 && c.stopAt < c.app.cfg.Iters {
		return c.stopAt
	}
	return c.app.cfg.Iters
}

// drainReady computes as many iterations as have complete edge sets,
// stopping at sync points and completion. It returns the accumulated CPU
// cost of the computation performed in this entry.
func (c *stencilChare) drainReady(ctx *charm.Ctx) float64 {
	cost := 0.0
	for {
		if c.finished || c.atSync {
			return cost
		}
		if c.iter >= c.limit() {
			c.finished = true
			ctx.Done()
			return cost
		}
		set := &c.inbox[c.iter&1]
		if set.n != len(c.neighbors()) {
			return cost
		}
		c.kernel.Step(&set.edges)
		*set = edgeSet{}
		bw := c.app.cfg.GridW / c.app.cfg.CharesX
		bh := c.app.cfg.GridH / c.app.cfg.CharesY
		step := float64(bw*bh) * c.app.cfg.CostPerCell
		if c.app.cfg.CostScale != nil {
			step *= c.app.cfg.CostScale(c.index)
		}
		cost += step
		c.iter++

		switch {
		case c.iter >= c.limit():
			c.finished = true
			ctx.Done()
			return cost
		case c.app.cfg.SyncEvery > 0 && c.iter%c.app.cfg.SyncEvery == 0:
			if c.app.cfg.ConvergeEps > 0 {
				rk := c.kernel.(ResidualKernel)
				round := c.iter / c.app.cfg.SyncEvery
				ctx.Contribute(residualTagPrefix+strconv.Itoa(round), rk.Residual(), charm.ReduceMax)
			}
			c.atSync = true
			ctx.AtSync()
			return cost
		default:
			c.sendEdges(ctx)
		}
	}
}

// sendEdges ships this block's boundary values for the current iteration
// from the outbox slot of that iteration.
func (c *stencilChare) sendEdges(ctx *charm.Ctx) {
	for _, d := range c.neighbors() {
		m := &c.outbox[c.iter&1][d]
		m.Iter, m.Dir = c.iter, d
		m.Data = c.kernel.AppendEdge(m.Data[:0], d)
		ctx.Send(c.neighborID(d), m, 8*len(m.Data)+24)
	}
}
