package apps

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"cloudlb/internal/charm"
)

// Particle is one point mass (unit mass) with position and velocity.
type Particle struct {
	ID         int
	X, Y, Z    float64
	VX, VY, VZ float64
}

// Mol3DConfig describes a classical molecular dynamics run with spatial
// cell decomposition: one chare per cell, 26-neighbor ghost exchange,
// truncated Lennard-Jones forces and leapfrog integration. A fraction of
// the particles is clustered in a Gaussian blob, so per-cell pair counts —
// and therefore loads — are strongly skewed, giving the
// application-internal imbalance the paper observes for Mol3D.
type Mol3DConfig struct {
	Array                  string
	CellsX, CellsY, CellsZ int
	// CellSize is a cell's edge length; it must be >= Cutoff so that all
	// interactions are covered by the 26-neighborhood.
	CellSize float64
	Cutoff   float64
	// Particles is the total particle count; ClusterFrac of them form a
	// Gaussian blob at the domain center, the rest are uniform.
	Particles   int
	ClusterFrac float64
	// ClusterSigmaFrac is the blob's standard deviation as a fraction of
	// the domain edge (default 0.1; larger spreads the imbalance over
	// more cells).
	ClusterSigmaFrac float64
	Seed             int64
	// Dt is the integration timestep.
	Dt float64
	// Epsilon and Sigma are the Lennard-Jones parameters.
	Epsilon, Sigma float64
	Iters          int
	SyncEvery      int
	// CostPerPair and CostPerParticle are the CPU seconds charged per
	// examined interaction pair and per integrated particle.
	CostPerPair     float64
	CostPerParticle float64
}

func (c *Mol3DConfig) withDefaults() Mol3DConfig {
	out := *c
	if out.Array == "" {
		out.Array = "mol3d"
	}
	if out.CellSize <= 0 {
		out.CellSize = 1
	}
	if out.Cutoff <= 0 {
		out.Cutoff = 0.8 * out.CellSize
	}
	if out.Cutoff > out.CellSize {
		panic("apps: cutoff must not exceed cell size")
	}
	if out.Dt <= 0 {
		out.Dt = 1e-3
	}
	if out.Epsilon <= 0 {
		out.Epsilon = 1
	}
	if out.Sigma <= 0 {
		out.Sigma = out.Cutoff / 4
	}
	if out.ClusterFrac < 0 || out.ClusterFrac > 1 {
		panic("apps: ClusterFrac must be in [0,1]")
	}
	if out.ClusterSigmaFrac <= 0 {
		out.ClusterSigmaFrac = 0.1
	}
	return out
}

// Mol3DApp wires the MD application into a runtime.
type Mol3DApp struct {
	cfg    Mol3DConfig
	lj     ljConst
	chares []*mdChare
}

// NewMol3DApp registers the cell array on the runtime. Call before
// rts.Start.
func NewMol3DApp(rts *charm.RTS, cfg Mol3DConfig) *Mol3DApp {
	app := newMol3D(cfg)
	rts.NewArray(app.cfg.Array, len(app.chares), func(i int) charm.Chare { return app.chares[i] })
	return app
}

// newMol3D validates the configuration and builds every cell chare with
// its initial particles, neighbor slots and exchange buffers.
func newMol3D(cfg Mol3DConfig) *Mol3DApp {
	c := cfg.withDefaults()
	if c.CellsX <= 0 || c.CellsY <= 0 || c.CellsZ <= 0 {
		panic("apps: invalid cell decomposition")
	}
	if c.Iters <= 0 {
		panic("apps: iterations must be positive")
	}
	app := &Mol3DApp{cfg: c, lj: newLJConst(c)}
	perCell := app.initialParticles()
	app.chares = make([]*mdChare, len(perCell))
	for i := range app.chares {
		ch := &mdChare{app: app, index: i, own: perCell[i], sent: -1}
		ch.cx, ch.cy, ch.cz = app.cellCoords(i)
		ch.nbrs = ch.neighbors()
		for p := range ch.inbox {
			ch.inbox[p].msgs = make([]*posMsg, len(ch.nbrs))
			ch.outbox[p].msgs = make([]posMsg, len(ch.nbrs))
			ch.outbox[p].movers = make([][]Particle, len(ch.nbrs))
		}
		app.chares[i] = ch
	}
	return app
}

// initialParticles generates all particles deterministically from the
// seed and buckets them per cell.
func (a *Mol3DApp) initialParticles() [][]Particle {
	c := &a.cfg
	perCell := make([][]Particle, c.CellsX*c.CellsY*c.CellsZ)
	rng := rand.New(rand.NewSource(c.Seed))
	lx := float64(c.CellsX) * c.CellSize
	ly := float64(c.CellsY) * c.CellSize
	lz := float64(c.CellsZ) * c.CellSize
	nCluster := int(float64(c.Particles) * c.ClusterFrac)
	for id := 0; id < c.Particles; id++ {
		var p Particle
		p.ID = id
		if id < nCluster {
			// Gaussian blob at the center, clipped to the domain.
			sf := c.ClusterSigmaFrac
			p.X = clamp(lx/2+rng.NormFloat64()*lx*sf, 0, lx)
			p.Y = clamp(ly/2+rng.NormFloat64()*ly*sf, 0, ly)
			p.Z = clamp(lz/2+rng.NormFloat64()*lz*sf, 0, lz)
		} else {
			p.X = rng.Float64() * lx
			p.Y = rng.Float64() * ly
			p.Z = rng.Float64() * lz
		}
		p.VX = rng.NormFloat64() * 0.1
		p.VY = rng.NormFloat64() * 0.1
		p.VZ = rng.NormFloat64() * 0.1
		ci := a.cellOf(p.X, p.Y, p.Z)
		perCell[ci] = append(perCell[ci], p)
	}
	return perCell
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v >= hi {
		return math.Nextafter(hi, lo)
	}
	return v
}

func (a *Mol3DApp) cellCoords(i int) (x, y, z int) {
	x = i % a.cfg.CellsX
	y = (i / a.cfg.CellsX) % a.cfg.CellsY
	z = i / (a.cfg.CellsX * a.cfg.CellsY)
	return
}

func (a *Mol3DApp) cellIndex(x, y, z int) int {
	return (z*a.cfg.CellsY+y)*a.cfg.CellsX + x
}

func (a *Mol3DApp) cellOf(x, y, z float64) int {
	cx := int(x / a.cfg.CellSize)
	cy := int(y / a.cfg.CellSize)
	cz := int(z / a.cfg.CellSize)
	cx = clampInt(cx, 0, a.cfg.CellsX-1)
	cy = clampInt(cy, 0, a.cfg.CellsY-1)
	cz = clampInt(cz, 0, a.cfg.CellsZ-1)
	return a.cellIndex(cx, cy, cz)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Particles gathers every particle in the system, sorted by ID (for tests
// and analysis after the run). Particles in transit between cells (in an
// unsent outbox at the end of the run or at an AtSync point) belong to
// the system and are included; the departed list is excluded, as it only
// mirrors outbox/own entries.
func (a *Mol3DApp) Particles() []Particle {
	var all []Particle
	for _, c := range a.chares {
		all = append(all, c.own...)
		if c.sent != c.iter {
			for _, mv := range c.outbox[c.iter&1].movers {
				all = append(all, mv...)
			}
		}
	}
	slices.SortFunc(all, byID)
	return all
}

func byID(a, b Particle) int { return a.ID - b.ID }

// CellCount returns the number of particles currently in cell i.
func (a *Mol3DApp) CellCount(i int) int { return len(a.chares[i].own) }

// NumCells returns the number of cells.
func (a *Mol3DApp) NumCells() int { return len(a.chares) }

// Iterations returns the completed iteration count of cell i.
func (a *Mol3DApp) Iterations(i int) int { return a.chares[i].iter }

// posMsg carries one cell's ghost positions and the particles handed to
// the receiver for one iteration. It travels as a pointer into the
// sender's outbox, so a send boxes nothing.
type posMsg struct {
	Iter   int
	From   int
	Ghost  []Particle
	Movers []Particle
}

// mdInbox collects the position messages received for one iteration,
// indexed by neighbor slot; a nil entry has not arrived yet.
type mdInbox struct {
	msgs []*posMsg
	n    int
}

// mdOutbox holds what a cell sends for one iteration: the particles
// departing to each neighbor slot, the ID-sorted ghost export shared by
// every slot, and one message per slot.
type mdOutbox struct {
	movers [][]Particle
	export []Particle
	msgs   []posMsg
}

// mdChare runs one cell.
//
// Neighbor slots index the cell's ascending neighbor list, fixed at
// construction. Exchange buffers are two-deep and indexed by
// iteration&1, as the stencil's edge rings are (DESIGN.md §15, §17): a
// neighbor runs at most one iteration ahead, so only iterations iter and
// iter+1 can be pending in the inbox. outbox[p] is refilled for
// iteration k+2 only from this cell's step k+1 on (movers during the
// step, export and messages after it); that step needs every neighbor's
// k+1 message, which each neighbor sent only after its own step k had
// read this cell's iteration-k export and movers.
type mdChare struct {
	app        *Mol3DApp
	index      int
	cx, cy, cz int
	own        []Particle
	iter       int
	atSync     bool  // between AtSync and Resume; no stepping
	nbrs       []int // neighbor cell indices, ascending; slot s is nbrs[s]
	inbox      [2]mdInbox
	outbox     [2]mdOutbox
	sent       int // last iteration whose positions were sent (-1 before Start)
	// departed holds last integration's leavers for one more iteration:
	// while the destination cell cannot yet export them (its position
	// messages left before the handover arrived), this cell computes the
	// force they exert on its remaining particles, keeping every pair
	// counted exactly once. See computeStep.
	departed   []Particle
	fx, fy, fz []float64 // force scratch
}

// PackSize implements charm.Chare.
func (c *mdChare) PackSize() int { return 48*len(c.own) + 512 }

// neighbors returns the cell indices of the up-to-26 adjacent cells, in
// ascending order for determinism. It runs once, at construction.
func (c *mdChare) neighbors() []int {
	var ns []int
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				x, y, z := c.cx+dx, c.cy+dy, c.cz+dz
				if x < 0 || x >= c.app.cfg.CellsX ||
					y < 0 || y >= c.app.cfg.CellsY ||
					z < 0 || z >= c.app.cfg.CellsZ {
					continue
				}
				ns = append(ns, c.app.cellIndex(x, y, z))
			}
		}
	}
	slices.Sort(ns)
	return ns
}

// slot returns the neighbor slot of cell ci, or -1 if ci is not adjacent.
func (c *mdChare) slot(ci int) int {
	for s, ni := range c.nbrs {
		if ni == ci {
			return s
		}
	}
	return -1
}

// Recv implements charm.Chare.
func (c *mdChare) Recv(ctx *charm.Ctx, data interface{}) float64 {
	switch m := data.(type) {
	case charm.Start, charm.Resume:
		c.atSync = false
		c.sendPositions(ctx)
		return c.drainReady(ctx)
	case *posMsg:
		if m.Iter != c.iter && m.Iter != c.iter+1 {
			panic(fmt.Sprintf("apps: cell %d at iteration %d got a posMsg for iteration %d from cell %d; neighbors run at most one iteration ahead",
				c.index, c.iter, m.Iter, m.From))
		}
		s := c.slot(m.From)
		if s < 0 {
			panic(fmt.Sprintf("apps: cell %d got a posMsg from non-neighbor cell %d", c.index, m.From))
		}
		box := &c.inbox[m.Iter&1]
		if box.msgs[s] != nil {
			panic(fmt.Sprintf("apps: duplicate posMsg iter=%d from=%d at cell %d", m.Iter, m.From, c.index))
		}
		box.msgs[s] = m
		box.n++
		return c.drainReady(ctx)
	case charm.ReductionResult:
		return 0
	}
	panic(fmt.Sprintf("apps: md chare got unexpected message %T", data))
}

func (c *mdChare) drainReady(ctx *charm.Ctx) float64 {
	cost := 0.0
	for {
		if c.atSync || c.iter >= c.app.cfg.Iters {
			return cost
		}
		box := &c.inbox[c.iter&1]
		if box.n != len(c.nbrs) {
			return cost
		}
		cost += c.computeStep(box.msgs)
		clear(box.msgs)
		box.n = 0
		c.iter++

		switch {
		case c.iter == c.app.cfg.Iters:
			ctx.Done()
			return cost
		case c.app.cfg.SyncEvery > 0 && c.iter%c.app.cfg.SyncEvery == 0:
			c.atSync = true
			ctx.AtSync()
			return cost
		default:
			c.sendPositions(ctx)
		}
	}
}

// computeStep adopts inbound movers, evaluates forces against own, ghost
// and recently-departed particles, integrates, and sorts departures into
// the outbox of the next iteration. in holds this iteration's message
// from every neighbor slot. It returns the CPU cost of the work performed.
//
// Pair coverage invariant: every particle pair within the cutoff is
// evaluated exactly once per side per iteration. Adopted movers also
// appear in their origin cell's ghost export (the origin cannot retract a
// message already composed), so ghosts duplicated by adoption are skipped
// by ID; conversely the origin keeps its leavers on a one-iteration
// departed list and computes their force on its remaining particles,
// because the destination's exports for this iteration predate the
// handover. This requires a skin: particles may penetrate at most
// CellSize - Cutoff into the next cell per step, which is asserted below.
//
// own's order is the own-own summation order and is never sorted. Every
// force is accumulated in the order and association DESIGN.md §17 fixes:
// floating-point addition is not associative, and the committed results
// depend on the low bits.
func (c *mdChare) computeStep(in []*posMsg) float64 {
	cfg := &c.app.cfg
	// Adopt movers in slot (ascending neighbor) order.
	for _, m := range in {
		c.own = append(c.own, m.Movers...)
	}
	own := c.own
	n := len(own)
	c.fx = resize(c.fx, n)
	c.fy = resize(c.fy, n)
	c.fz = resize(c.fz, n)
	fx, fy, fz := c.fx, c.fy, c.fz

	lj := c.app.lj
	// Own-own pairs, Newton's third law applied. Each pair force is
	// rounded (float64) before it is accumulated, so a compiler that
	// fuses multiply-adds cannot merge f*dx into a sum (DESIGN.md §17).
	pairs := n * (n - 1) / 2
	for i := 0; i < n; i++ {
		xi, yi, zi := own[i].X, own[i].Y, own[i].Z
		fxi, fyi, fzi := fx[i], fy[i], fz[i]
		for j := i + 1; j < n; j++ {
			dx := xi - own[j].X
			dy := yi - own[j].Y
			dz := zi - own[j].Z
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= lj.rc2 || r2 == 0 {
				continue
			}
			f := lj.scale(r2)
			px, py, pz := float64(f*dx), float64(f*dy), float64(f*dz)
			fxi += px
			fyi += py
			fzi += pz
			fx[j] -= px
			fy[j] -= py
			fz[j] -= pz
		}
		fx[i], fy[i], fz[i] = fxi, fyi, fzi
	}
	// Own-ghost pairs, one-sided (the neighbor computes its own side).
	for _, m := range in {
		for gi := range m.Ghost {
			g := &m.Ghost[gi]
			if adopted(m.Movers, g.ID) {
				continue
			}
			pairs += n
			c.addForces(g.X, g.Y, g.Z, &lj)
		}
	}
	// Recently-departed particles: their new owner cannot export them yet,
	// so this cell supplies the force they exert on its remaining
	// particles (the owner computes the mirror side from our ghost).
	for di := range c.departed {
		d := &c.departed[di]
		pairs += n
		c.addForces(d.X, d.Y, d.Z, &lj)
	}
	c.departed = c.departed[:0]

	// Leapfrog with reflecting walls.
	lx := float64(cfg.CellsX) * cfg.CellSize
	ly := float64(cfg.CellsY) * cfg.CellSize
	lz := float64(cfg.CellsZ) * cfg.CellSize
	for i := range own {
		p := &own[i]
		p.VX += fx[i] * cfg.Dt
		p.VY += fy[i] * cfg.Dt
		p.VZ += fz[i] * cfg.Dt
		p.X += p.VX * cfg.Dt
		p.Y += p.VY * cfg.Dt
		p.Z += p.VZ * cfg.Dt
		reflect(&p.X, &p.VX, lx)
		reflect(&p.Y, &p.VY, ly)
		reflect(&p.Z, &p.VZ, lz)
	}

	// Sort departures into the outbox for the next exchange.
	out := &c.outbox[(c.iter+1)&1]
	for s := range out.movers {
		out.movers[s] = out.movers[s][:0]
	}
	skin := cfg.CellSize - cfg.Cutoff
	kept := own[:0]
	for _, p := range own {
		dest := c.app.cellOf(p.X, p.Y, p.Z)
		if dest == c.index {
			kept = append(kept, p)
			continue
		}
		s := c.slot(dest)
		if s < 0 {
			panic(fmt.Sprintf("apps: particle %d crossed more than one cell per step (dt too large)", p.ID))
		}
		if d := c.penetration(p); d > skin+1e-12 {
			panic(fmt.Sprintf("apps: particle %d penetrated %.4g past its cell, beyond the %.4g skin (reduce dt or cutoff)", p.ID, d, skin))
		}
		out.movers[s] = append(out.movers[s], p)
		c.departed = append(c.departed, p)
	}
	c.own = kept

	return float64(pairs)*cfg.CostPerPair + float64(n)*cfg.CostPerParticle
}

// addForces adds the force a particle at (x, y, z) exerts on every own
// particle, one-sided, rounding each pair force as computeStep does.
func (c *mdChare) addForces(x, y, z float64, lj *ljConst) {
	own := c.own
	fx, fy, fz := c.fx[:len(own)], c.fy[:len(own)], c.fz[:len(own)]
	for i := range own {
		dx := own[i].X - x
		dy := own[i].Y - y
		dz := own[i].Z - z
		r2 := dx*dx + dy*dy + dz*dz
		if r2 >= lj.rc2 || r2 == 0 {
			continue
		}
		f := lj.scale(r2)
		fx[i] += float64(f * dx)
		fy[i] += float64(f * dy)
		fz[i] += float64(f * dz)
	}
}

// adopted reports whether a ghost is one of the movers its sender handed
// to this cell in the same message (0-2 per neighbor per step, so a
// linear scan beats any set).
func adopted(movers []Particle, id int) bool {
	for i := range movers {
		if movers[i].ID == id {
			return true
		}
	}
	return false
}

// penetration reports how far a particle sits outside this cell's box.
func (c *mdChare) penetration(p Particle) float64 {
	cs := c.app.cfg.CellSize
	d := 0.0
	for _, a := range [3]struct{ v, lo float64 }{
		{p.X, float64(c.cx) * cs},
		{p.Y, float64(c.cy) * cs},
		{p.Z, float64(c.cz) * cs},
	} {
		if under := a.lo - a.v; under > d {
			d = under
		}
		if over := a.v - (a.lo + cs); over > d {
			d = over
		}
	}
	return d
}

// resize returns s zeroed at length n, growing it with headroom so that a
// cell whose population creeps up does not reallocate every step.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, 2*n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func reflect(x, v *float64, l float64) {
	if *x < 0 {
		*x = -*x
		*v = -*v
	}
	if *x >= l {
		*x = 2*l - *x
		*v = -*v
	}
	// A second pass handles the (diagnostic-only) case of overshooting
	// past both walls in one step.
	if *x < 0 || *x >= l {
		*x = clamp(*x, 0, l)
	}
}

// ljConst holds the Lennard-Jones constants of a run, folded once from
// the configuration.
type ljConst struct {
	rc2   float64 // cutoff squared
	minR2 float64 // softening radius 0.8σ, squared
	sig2  float64 // σ²
	eps24 float64 // 24ε
}

func newLJConst(cfg Mol3DConfig) ljConst {
	return ljConst{
		rc2:   cfg.Cutoff * cfg.Cutoff,
		minR2: 0.64 * cfg.Sigma * cfg.Sigma,
		sig2:  cfg.Sigma * cfg.Sigma,
		eps24: 24 * cfg.Epsilon,
	}
}

// scale returns the truncated Lennard-Jones force factor f for a pair at
// squared distance r2 inside the cutoff: the force on a from b is f times
// the separation a-b. Pairs closer than 0.8σ are softened to that radius
// to keep random initial conditions stable. The expression is evaluated
// in a fixed order (DESIGN.md §17) and must stay inlinable.
func (k *ljConst) scale(r2 float64) float64 {
	if r2 < k.minR2 {
		r2 = k.minR2
	}
	s2 := k.sig2 / r2
	s6 := s2 * s2 * s2
	return k.eps24 * (2*s6*s6 - s6) / r2
}

// sendPositions ships ghost positions and departing particles for the
// current iteration to every neighbor slot. The ghost export includes the
// movers (see computeStep's pair coverage invariant): a departing
// particle remains visible to every neighbor via its origin for one
// iteration.
func (c *mdChare) sendPositions(ctx *charm.Ctx) {
	out := &c.outbox[c.iter&1]
	export := append(out.export[:0], c.own...)
	for _, mv := range out.movers {
		export = append(export, mv...)
	}
	slices.SortFunc(export, byID)
	out.export = export
	for s, ni := range c.nbrs {
		m := &out.msgs[s]
		*m = posMsg{Iter: c.iter, From: c.index, Ghost: export, Movers: out.movers[s]}
		bytes := 24*len(export) + 48*len(m.Movers) + 32
		ctx.Send(charm.ChareID{Array: c.app.cfg.Array, Index: ni}, m, bytes)
	}
	c.sent = c.iter
}
