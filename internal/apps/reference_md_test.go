package apps

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cloudlb/internal/charm"
	"cloudlb/internal/sim"
)

// Test-only reference MD cell: the map-based chare the slot-indexed one
// replaced. It recomputes its neighbor list on every message, buffers
// position messages in a map of per-iteration maps, keeps movers in a
// map keyed by destination, copies and sorts a fresh ghost export per
// send, and evaluates each pair through a non-inlined force function on
// Particle copies. The production chare must agree with it bit for bit:
// every particle field, every cell's count, and the cost of every Recv.

type refPosMsg struct {
	Iter   int
	From   int
	Ghost  []Particle
	Movers []Particle
}

type refMDChare struct {
	app        *Mol3DApp // configuration and cell geometry only
	index      int
	cx, cy, cz int
	own        []Particle
	iter       int
	atSync     bool
	buf        map[int]map[int]refPosMsg // iter -> from -> msg
	outbox     map[int][]Particle        // neighbor index -> particles departing there
	departed   []Particle
	fx, fy, fz []float64
}

// newRefMD builds one reference chare per cell of geom, starting from
// perCell (copied).
func newRefMD(geom *Mol3DApp, perCell [][]Particle) []*refMDChare {
	chares := make([]*refMDChare, len(perCell))
	for i := range chares {
		ch := &refMDChare{
			app: geom, index: i,
			own:    append([]Particle(nil), perCell[i]...),
			buf:    make(map[int]map[int]refPosMsg),
			outbox: make(map[int][]Particle),
		}
		ch.cx, ch.cy, ch.cz = geom.cellCoords(i)
		chares[i] = ch
	}
	return chares
}

func refParticles(chares []*refMDChare) []Particle {
	var all []Particle
	for _, c := range chares {
		all = append(all, c.own...)
		for _, out := range c.outbox {
			all = append(all, out...)
		}
	}
	slices.SortFunc(all, func(a, b Particle) int { return a.ID - b.ID })
	return all
}

func (c *refMDChare) PackSize() int { return 48*len(c.own) + 512 }

func (c *refMDChare) neighbors() []int {
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

func (c *refMDChare) Recv(ctx *charm.Ctx, data interface{}) float64 {
	switch m := data.(type) {
	case charm.Start, charm.Resume:
		c.atSync = false
		c.sendPositions(ctx)
		return c.drainReady(ctx)
	case refPosMsg:
		bucket, ok := c.buf[m.Iter]
		if !ok {
			bucket = make(map[int]refPosMsg)
			c.buf[m.Iter] = bucket
		}
		if _, dup := bucket[m.From]; dup {
			panic(fmt.Sprintf("apps: duplicate posMsg iter=%d from=%d at cell %d", m.Iter, m.From, c.index))
		}
		bucket[m.From] = m
		return c.drainReady(ctx)
	case charm.ReductionResult:
		return 0
	}
	panic(fmt.Sprintf("apps: md chare got unexpected message %T", data))
}

func (c *refMDChare) drainReady(ctx *charm.Ctx) float64 {
	cost := 0.0
	for {
		if c.atSync || c.iter >= c.app.cfg.Iters {
			return cost
		}
		bucket := c.buf[c.iter]
		neighbors := c.neighbors()
		if len(bucket) != len(neighbors) {
			return cost
		}
		delete(c.buf, c.iter)
		cost += c.computeStep(neighbors, bucket)
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

func (c *refMDChare) computeStep(neighbors []int, bucket map[int]refPosMsg) float64 {
	cfg := &c.app.cfg
	adopted := make(map[int]map[int]bool)
	for _, from := range neighbors {
		mv := bucket[from].Movers
		if len(mv) == 0 {
			continue
		}
		ids := make(map[int]bool, len(mv))
		for _, p := range mv {
			ids[p.ID] = true
		}
		adopted[from] = ids
		c.own = append(c.own, mv...)
	}
	n := len(c.own)
	c.fx = resize(c.fx, n)
	c.fy = resize(c.fy, n)
	c.fz = resize(c.fz, n)

	rc2 := cfg.Cutoff * cfg.Cutoff
	pairs := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs++
			fx, fy, fz, ok := c.ljForce(c.own[i], c.own[j], rc2)
			if !ok {
				continue
			}
			c.fx[i] += fx
			c.fy[i] += fy
			c.fz[i] += fz
			c.fx[j] -= fx
			c.fy[j] -= fy
			c.fz[j] -= fz
		}
	}
	for _, from := range neighbors {
		skip := adopted[from]
		for _, g := range bucket[from].Ghost {
			if skip[g.ID] {
				continue
			}
			for i := 0; i < n; i++ {
				pairs++
				fx, fy, fz, ok := c.ljForce(c.own[i], g, rc2)
				if !ok {
					continue
				}
				c.fx[i] += fx
				c.fy[i] += fy
				c.fz[i] += fz
			}
		}
	}
	for _, d := range c.departed {
		for i := 0; i < n; i++ {
			pairs++
			fx, fy, fz, ok := c.ljForce(c.own[i], d, rc2)
			if !ok {
				continue
			}
			c.fx[i] += fx
			c.fy[i] += fy
			c.fz[i] += fz
		}
	}
	c.departed = nil

	lx := float64(cfg.CellsX) * cfg.CellSize
	ly := float64(cfg.CellsY) * cfg.CellSize
	lz := float64(cfg.CellsZ) * cfg.CellSize
	for i := range c.own {
		p := &c.own[i]
		p.VX += c.fx[i] * cfg.Dt
		p.VY += c.fy[i] * cfg.Dt
		p.VZ += c.fz[i] * cfg.Dt
		p.X += p.VX * cfg.Dt
		p.Y += p.VY * cfg.Dt
		p.Z += p.VZ * cfg.Dt
		reflect(&p.X, &p.VX, lx)
		reflect(&p.Y, &p.VY, ly)
		reflect(&p.Z, &p.VZ, lz)
	}

	skin := cfg.CellSize - cfg.Cutoff
	kept := c.own[:0]
	for _, p := range c.own {
		dest := c.app.cellOf(p.X, p.Y, p.Z)
		if dest == c.index {
			kept = append(kept, p)
			continue
		}
		dx, dy, dz := c.app.cellCoords(dest)
		if abs(dx-c.cx) > 1 || abs(dy-c.cy) > 1 || abs(dz-c.cz) > 1 {
			panic(fmt.Sprintf("apps: particle %d crossed more than one cell per step (dt too large)", p.ID))
		}
		if d := c.penetration(p); d > skin+1e-12 {
			panic(fmt.Sprintf("apps: particle %d penetrated %.4g past its cell, beyond the %.4g skin (reduce dt or cutoff)", p.ID, d, skin))
		}
		c.outbox[dest] = append(c.outbox[dest], p)
		c.departed = append(c.departed, p)
	}
	c.own = kept

	return float64(pairs)*cfg.CostPerPair + float64(n)*cfg.CostPerParticle
}

func (c *refMDChare) penetration(p Particle) float64 {
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

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

//go:noinline
func (c *refMDChare) ljForce(a, b Particle, rc2 float64) (fx, fy, fz float64, ok bool) {
	dx := a.X - b.X
	dy := a.Y - b.Y
	dz := a.Z - b.Z
	r2 := dx*dx + dy*dy + dz*dz
	if r2 >= rc2 || r2 == 0 {
		return 0, 0, 0, false
	}
	sigma := c.app.cfg.Sigma
	minR2 := 0.64 * sigma * sigma
	if r2 < minR2 {
		r2 = minR2
	}
	s2 := sigma * sigma / r2
	s6 := s2 * s2 * s2
	f := 24 * c.app.cfg.Epsilon * (2*s6*s6 - s6) / r2
	return f * dx, f * dy, f * dz, true
}

func (c *refMDChare) sendPositions(ctx *charm.Ctx) {
	export := append([]Particle(nil), c.own...)
	for _, out := range c.outbox {
		export = append(export, out...)
	}
	slices.SortFunc(export, func(a, b Particle) int { return a.ID - b.ID })
	for _, ni := range c.neighbors() {
		movers := c.outbox[ni]
		delete(c.outbox, ni)
		bytes := 24*len(export) + 48*len(movers) + 32
		ctx.Send(charm.ChareID{Array: c.app.cfg.Array, Index: ni},
			refPosMsg{Iter: c.iter, From: c.index, Ghost: export, Movers: movers}, bytes)
	}
	if len(c.outbox) != 0 {
		panic(fmt.Sprintf("apps: cell %d has stranded movers", c.index))
	}
}

// costLog records the cost of every Recv of the chare it wraps.
type costLog struct {
	charm.Chare
	costs *[]float64
}

func (l costLog) Recv(ctx *charm.Ctx, data interface{}) float64 {
	cost := l.Chare.Recv(ctx, data)
	*l.costs = append(*l.costs, cost)
	return cost
}

// mdOutcome is everything a differential MD run compares.
type mdOutcome struct {
	costs      [][]float64 // per cell, the cost of every Recv in order
	counts     []int
	parts      []Particle
	finish     sim.Time
	migrations int
	panicked   string
}

// runMD runs one Mol3D world to completion on 4 cores, with the
// production chares or (ref) the reference ones, from perCell (nil: the
// configuration's generated particles), under RefineLB when balance is
// set. A panic inside the run ends it and is recorded, so that both
// implementations can be required to fail identically.
func runMD(t *testing.T, cfg Mol3DConfig, perCell [][]Particle, balance, ref bool) (out mdOutcome) {
	t.Helper()
	var eng *sim.Engine
	var rts *charm.RTS
	if balance {
		eng, rts = testRTSWithStrategy(t)
	} else {
		eng, rts = testRTS(t, 1, 4)
	}
	app := newMol3D(cfg)
	if perCell == nil {
		perCell = app.initialParticles()
	}
	n := len(app.chares)
	chares := make([]charm.Chare, n)
	var refChares []*refMDChare
	if ref {
		refChares = newRefMD(app, perCell)
		for i, ch := range refChares {
			chares[i] = ch
		}
	} else {
		for i, ch := range app.chares {
			ch.own = append([]Particle(nil), perCell[i]...)
			chares[i] = ch
		}
	}
	out.costs = make([][]float64, n)
	rts.NewArray(app.cfg.Array, n, func(i int) charm.Chare { return costLog{chares[i], &out.costs[i]} })
	rts.Start()
	defer func() {
		if p := recover(); p != nil {
			out.panicked = fmt.Sprint(p)
		}
	}()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !rts.Finished() {
		t.Fatal("md run did not finish")
	}
	out.finish, out.migrations = rts.FinishTime(), rts.Migrations()
	out.counts = make([]int, n)
	if ref {
		for i, ch := range refChares {
			out.counts[i] = len(ch.own)
		}
		out.parts = refParticles(refChares)
	} else {
		for i := range out.counts {
			out.counts[i] = app.CellCount(i)
		}
		out.parts = app.Particles()
	}
	return out
}

// diffMD reports the first difference between two runs, comparing floats
// by their bits.
func diffMD(got, want mdOutcome) error {
	if got.panicked != want.panicked {
		return fmt.Errorf("panic %q, reference %q", got.panicked, want.panicked)
	}
	for i := range want.costs {
		if len(got.costs[i]) != len(want.costs[i]) {
			return fmt.Errorf("cell %d: %d Recvs, reference %d", i, len(got.costs[i]), len(want.costs[i]))
		}
		for k, c := range want.costs[i] {
			if math.Float64bits(got.costs[i][k]) != math.Float64bits(c) {
				return fmt.Errorf("cell %d Recv %d: cost %v, reference %v", i, k, got.costs[i][k], c)
			}
		}
	}
	if want.panicked != "" {
		return nil
	}
	if !slices.Equal(got.counts, want.counts) {
		return fmt.Errorf("cell counts %v, reference %v", got.counts, want.counts)
	}
	if len(got.parts) != len(want.parts) {
		return fmt.Errorf("%d particles, reference %d", len(got.parts), len(want.parts))
	}
	for i, w := range want.parts {
		g := got.parts[i]
		if g.ID != w.ID || !sameBits(g.X, w.X) || !sameBits(g.Y, w.Y) || !sameBits(g.Z, w.Z) ||
			!sameBits(g.VX, w.VX) || !sameBits(g.VY, w.VY) || !sameBits(g.VZ, w.VZ) {
			return fmt.Errorf("particle %d: %+v, reference %+v", w.ID, g, w)
		}
	}
	if got.finish != want.finish || got.migrations != want.migrations {
		return fmt.Errorf("finish %v with %d migrations, reference %v with %d",
			got.finish, got.migrations, want.finish, want.migrations)
	}
	return nil
}

// TestMDMatchesReference is the differential oracle for the MD chare:
// several decompositions, with and without AtSync, and a RefineLB run
// that migrates cells mid-run.
func TestMDMatchesReference(t *testing.T) {
	grids := [][3]int{{1, 1, 1}, {3, 2, 1}, {3, 3, 3}}
	for _, g := range grids {
		for _, sync := range []int{0, 4} {
			cfg := Mol3DConfig{
				CellsX: g[0], CellsY: g[1], CellsZ: g[2],
				CellSize: 1.0, Particles: 30 * g[0] * g[1] * g[2], ClusterFrac: 0.6,
				Seed: int64(7 + sync), Dt: 2e-3, Iters: 20, SyncEvery: sync,
				CostPerPair: 1e-8, CostPerParticle: 1e-8,
			}
			want := runMD(t, cfg, nil, false, true)
			if err := diffMD(runMD(t, cfg, nil, false, false), want); err != nil {
				t.Fatalf("%dx%dx%d SyncEvery=%d: %v", g[0], g[1], g[2], sync, err)
			}
		}
	}
	cfg := Mol3DConfig{
		CellsX: 3, CellsY: 3, CellsZ: 3,
		CellSize: 1.0, Particles: 400, ClusterFrac: 0.8,
		Seed: 11, Dt: 2e-3, Iters: 24, SyncEvery: 3,
		CostPerPair: 1e-6, CostPerParticle: 1e-6,
	}
	want := runMD(t, cfg, nil, true, true)
	if want.migrations == 0 {
		t.Fatal("RefineLB reference run migrated nothing; the case would prove nothing")
	}
	if err := diffMD(runMD(t, cfg, nil, true, false), want); err != nil {
		t.Fatalf("RefineLB 3x3x3: %v", err)
	}
}

// fuzzShapes are the decompositions FuzzMDStep picks from.
var fuzzShapes = [][3]int{{1, 1, 1}, {2, 1, 1}, {3, 2, 1}, {2, 2, 2}, {3, 3, 3}}

// edgeParticles places n particles where the cell-list bookkeeping is
// most fragile: each coordinate sits on a cell face, at the skin
// boundary CellSize - Cutoff from either face, just inside the far face,
// or at a random offset; coincident particles arise naturally. Each
// velocity component is up to vfrac of the skin limit (Cutoff-to-face
// distance per step).
func edgeParticles(cfg Mol3DConfig, n int, vfrac float64, r *rand.Rand) [][]Particle {
	geom := newMol3D(cfg)
	c := geom.cfg
	skin := c.CellSize - c.Cutoff
	offsets := []float64{0, skin, c.CellSize - skin, math.Nextafter(c.CellSize, 0), c.CellSize / 2}
	vmax := vfrac * skin / c.Dt
	perCell := make([][]Particle, len(geom.chares))
	for id := 0; id < n; id++ {
		cell := [3]int{r.Intn(c.CellsX), r.Intn(c.CellsY), r.Intn(c.CellsZ)}
		var pos, vel [3]float64
		for a := range pos {
			off := r.Float64() * c.CellSize
			if k := r.Intn(len(offsets) + 2); k < len(offsets) {
				off = offsets[k]
			}
			pos[a] = float64(cell[a])*c.CellSize + off
			vel[a] = (2*r.Float64() - 1) * vmax
		}
		p := Particle{ID: id, X: pos[0], Y: pos[1], Z: pos[2], VX: vel[0], VY: vel[1], VZ: vel[2]}
		ci := geom.cellOf(p.X, p.Y, p.Z)
		perCell[ci] = append(perCell[ci], p)
	}
	return perCell
}

// FuzzMDStep drives the production MD chares against the reference on a
// fuzzed decomposition, particle placement at cell faces, corners and
// the skin boundary, velocities up to the skin limit (vfrac <= 1), AtSync
// period and load balancing. vfrac up to 1.5 overshoots the skin: those
// runs must panic identically. The seed corpus is in
// testdata/fuzz/FuzzMDStep.
func FuzzMDStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, parts8, iters8, sync8 uint8, balance bool, seed int64, vfrac, eps float64) {
		g := fuzzShapes[int(shape)%len(fuzzShapes)]
		if !(vfrac >= 0 && vfrac <= 1.5) {
			vfrac = 1
		}
		if !(eps > 0 && eps <= 1) {
			eps = 1e-3
		}
		cfg := Mol3DConfig{
			CellsX: g[0], CellsY: g[1], CellsZ: g[2],
			CellSize: 1.0, Cutoff: 0.8, Epsilon: eps,
			Dt: 1e-3, Iters: int(iters8%16) + 1, SyncEvery: int(sync8 % 5),
			CostPerPair: 1e-7, CostPerParticle: 1e-7,
		}
		perCell := edgeParticles(cfg, int(parts8%96), vfrac, rand.New(rand.NewSource(seed)))
		want := runMD(t, cfg, perCell, balance, true)
		if err := diffMD(runMD(t, cfg, perCell, balance, false), want); err != nil {
			t.Fatalf("%dx%dx%d: %v", g[0], g[1], g[2], err)
		}
	})
}
