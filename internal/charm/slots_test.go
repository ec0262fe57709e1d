package charm_test

import (
	"fmt"
	"strings"
	"testing"

	"cloudlb/internal/charm"
	"cloudlb/internal/core"
	"cloudlb/internal/interfere"
	"cloudlb/internal/lb"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

// oracleWorld is a cluster on one shard or on several.
type oracleWorld struct {
	sh  *sim.Shards
	m   *machine.Machine
	net *xnet.Network
}

func newOracleWorld(t *testing.T, shards, nodes, coresPer int, netCfg xnet.Config) *oracleWorld {
	t.Helper()
	cfg := machine.Config{Nodes: nodes, CoresPerNode: coresPer, CoreSpeed: 1}
	sh := sim.NewShards(shards, sim.Time(netCfg.MinInterNodeLatency(nodes)))
	t.Cleanup(sh.Close)
	m := machine.New(sh, cfg)
	return &oracleWorld{sh: sh, m: m, net: xnet.New(m, netCfg)}
}

func (w *oracleWorld) cores() []int {
	cores := make([]int, w.m.NumCores())
	for i := range cores {
		cores[i] = i
	}
	return cores
}

// hog keeps a core permanently busy, so the strategies have something to
// balance.
func (w *oracleWorld) hog(core int) {
	h := w.m.NewThread("hog", w.m.Core(core), 1)
	var loop func()
	loop = func() { h.Run(0.5, loop) }
	loop()
}

type (
	oracleStep struct{}
	oracleNote struct{}
)

// oracleChare iterates with AtSync every syncEvery iterations, sending a
// note to its ring neighbor each iteration, and calls Done at iteration
// doneAt — with AtSync in the same entry when syncDone is set. Every entry
// first checks its own PE's counters against the reference recount (the
// check reads only that PE's state, so it is shard-safe mid-window).
type oracleChare struct {
	rts       *charm.RTS
	next      charm.ChareID
	syncEvery int
	doneAt    int
	syncDone  bool

	iter     int
	finished bool
	diverged string
}

func (c *oracleChare) PackSize() int { return 2048 }

func (c *oracleChare) Recv(ctx *charm.Ctx, data interface{}) float64 {
	if c.diverged == "" {
		c.diverged = charm.PECounterDivergence(c.rts, ctx.PE())
	}
	switch data.(type) {
	case oracleNote:
		return 1e-5
	case charm.Start, charm.Resume, oracleStep:
	default:
		return 0
	}
	if c.finished {
		return 0
	}
	c.iter++
	ctx.Send(c.next, oracleNote{}, 256)
	if c.iter == c.doneAt {
		c.finished = true
		ctx.Done()
		if c.syncDone {
			ctx.AtSync()
		}
		return 0.004
	}
	if c.iter%c.syncEvery == 0 {
		ctx.AtSync()
	} else {
		ctx.Send(ctx.Self(), oracleStep{}, 16)
	}
	return 0.004
}

// newOracleArray creates n chares that run iters iterations and end with
// Done and AtSync in one entry; two families end early that way, one on a
// sync iteration and one off it. With loneDone, every seventh chare calls
// Done alone mid-run. Only AtSync completes a PE's sync, never a lone
// Done, so that Done falls well before a sync iteration, while the PE's
// chares run in lockstep between syncs — which evacuation breaks.
func newOracleArray(r *charm.RTS, n, iters, syncEvery int, loneDone bool) []*oracleChare {
	chares := make([]*oracleChare, n)
	r.NewArray("w", n, func(i int) charm.Chare {
		c := &oracleChare{rts: r, next: charm.ChareID{Array: "w", Index: (i + 1) % n},
			syncEvery: syncEvery, doneAt: iters, syncDone: true}
		switch {
		case i%7 == 3 && loneDone:
			c.doneAt, c.syncDone = 2*syncEvery+2, false
		case i%11 == 5:
			c.doneAt, c.syncDone = 2*syncEvery, true
		case i%13 == 8:
			c.doneAt, c.syncDone = 2*syncEvery+1, true
		}
		chares[i] = c
		return c
	})
	return chares
}

// runOracle drives the world until stop reports true, checking every PE's
// counters against the reference recount after every engine event (one
// shard) or at every barrier (several shards, where the chares' own
// per-entry checks cover the parallel windows). poke, when non-nil, runs
// at each check point with every shard parked.
func runOracle(t *testing.T, w *oracleWorld, r *charm.RTS, stop func() bool, poke func()) {
	t.Helper()
	const deadline = 300
	if !w.sh.Concurrent() {
		eng := w.sh.Engine(0)
		for !stop() {
			if !eng.Step() || eng.Now() > deadline {
				t.Fatalf("run did not finish (t=%v)", eng.Now())
			}
			if msg := charm.CounterDivergence(r); msg != "" {
				t.Fatalf("after event %d: %s", eng.Executed(), msg)
			}
			if poke != nil {
				poke()
			}
		}
		return
	}
	var first string
	w.sh.OnBarrier(func() {
		if first == "" {
			first = charm.CounterDivergence(r)
		}
		if poke != nil {
			poke()
		}
	})
	for !stop() && first == "" {
		if w.sh.Now() > deadline {
			t.Fatalf("run did not finish (t=%v)", w.sh.Now())
		}
		if err := w.sh.RunUntil(w.sh.Now() + 0.002); err != nil {
			t.Fatal(err)
		}
	}
	if first != "" {
		t.Fatalf("at barrier t=%v: %s", w.sh.Now(), first)
	}
}

func checkChares(t *testing.T, chares []*oracleChare, wantFinished bool) {
	t.Helper()
	for i, c := range chares {
		if c.diverged != "" {
			t.Fatalf("chare w[%d] saw %s", i, c.diverged)
		}
		if wantFinished && !c.finished {
			t.Fatalf("chare w[%d] never finished", i)
		}
	}
}

// TestSlotCounterOracle is the differential oracle for the O(1) AtSync
// counters: across the noLB short-circuit and the flat, hierarchical and
// distributed protocols, Done mid-run (alone and together with AtSync),
// lossy churn, and evacuation of synced chares, the counters and
// nonEmptyPEs must equal the reference recount at every event, on the
// one shard and at Shards 2.
func TestSlotCounterOracle(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Run("noLB", func(t *testing.T) {
				w := newOracleWorld(t, shards, 2, 4, xnet.DefaultConfig())
				r := charm.NewRTS(charm.Config{Machine: w.m, Net: w.net, Cores: w.cores()})
				chares := newOracleArray(r, 64, 30, 5, true)
				r.Start()
				runOracle(t, w, r, r.Finished, nil)
				checkChares(t, chares, true)
			})
			t.Run("refine", func(t *testing.T) {
				w := newOracleWorld(t, shards, 2, 4, xnet.DefaultConfig())
				w.hog(3)
				r := charm.NewRTS(charm.Config{Machine: w.m, Net: w.net, Cores: w.cores(),
					Strategy: &core.RefineLB{EpsilonFrac: 0.02}})
				chares := newOracleArray(r, 64, 30, 5, true)
				r.Start()
				runOracle(t, w, r, r.Finished, nil)
				checkChares(t, chares, true)
				if r.Migrations() == 0 {
					t.Fatal("RefineLB migrated nothing")
				}
			})
			t.Run("hierarchical", func(t *testing.T) {
				w := newOracleWorld(t, shards, 2, 4, xnet.DefaultConfig())
				w.hog(3)
				r := charm.NewRTS(charm.Config{Machine: w.m, Net: w.net, Cores: w.cores(),
					Strategy: &core.RefineLB{EpsilonFrac: 0.02}, HierarchicalLB: true, ReductionArity: 2})
				chares := newOracleArray(r, 64, 30, 5, true)
				r.Start()
				runOracle(t, w, r, r.Finished, nil)
				checkChares(t, chares, true)
				if r.Migrations() == 0 {
					t.Fatal("hierarchical RefineLB migrated nothing")
				}
			})
			t.Run("diffusion-churn-drop", func(t *testing.T) {
				netCfg := xnet.DefaultConfig()
				netCfg.DropPct, netCfg.Seed = 2, 7
				w := newOracleWorld(t, shards, 2, 4, netCfg)
				interfere.StartChurn(w.m, interfere.ChurnConfig{
					Cores: w.cores(), ArrivalsPerSecond: 4, MeanDuration: 1.5, MaxConcurrent: 4, Seed: 3,
				})
				r := charm.NewRTS(charm.Config{Machine: w.m, Net: w.net, Cores: w.cores(),
					Strategy: &lb.DiffusionLB{}})
				chares := newOracleArray(r, 64, 30, 5, true)
				r.Start()
				runOracle(t, w, r, r.Finished, nil)
				checkChares(t, chares, true)
				if r.Migrations() == 0 {
					t.Fatal("DiffusionLB migrated nothing")
				}
			})
			t.Run("evacuation", func(t *testing.T) {
				w := newOracleWorld(t, shards, 2, 4, xnet.DefaultConfig())
				w.sh.ForceSequential()
				w.hog(3)
				r := charm.NewRTS(charm.Config{Machine: w.m, Net: w.net, Cores: w.cores(),
					Strategy: &core.RefineLB{EpsilonFrac: 0.02}})
				// No chare ends here: a chare still in flight when a gather
				// completes rejoins one interval behind its new PE, and the
				// protocol has no answer to a lone Done then (DESIGN.md §16).
				chares := newOracleArray(r, 64, 1<<30, 5, false)
				// Revoke each victim the first time some of its chares
				// have synced while others still run — so evacuation
				// carries synced chares — then restore it: PE 5 with
				// warning (eager evacuation), then PE 2 as a hard kill.
				// Stop two LB steps after the last restore.
				victims := []struct {
					pe      int
					warning sim.Duration
				}{{5, 0.01}, {2, 0}}
				next, revokedAt, carried, stopAt := 0, sim.Time(-1), 0, -1
				poke := func() {
					if revokedAt >= 0 {
						v := victims[next-1]
						if w.sh.Now() > revokedAt+0.3 && r.Retired(v.pe) && !charm.LBBusy(r) {
							r.RestorePE(v.pe, -1)
							revokedAt = -1
							if next == len(victims) {
								stopAt = r.LBSteps() + 2
							}
						}
						return
					}
					if next == len(victims) || charm.LBBusy(r) {
						return
					}
					v := victims[next]
					if n := charm.SyncedWaiting(r, v.pe); n > 0 {
						carried += n
						r.RevokePE(v.pe, v.warning)
						revokedAt = w.sh.Now()
						next++
					}
				}
				r.Start()
				runOracle(t, w, r, func() bool { return stopAt >= 0 && r.LBSteps() >= stopAt }, poke)
				checkChares(t, chares, false)
				if carried == 0 || r.Evacuations() == 0 {
					t.Fatalf("%d synced chares carried, %d evacuations", carried, r.Evacuations())
				}
			})
		})
	}
}

// TestChareFoundWhileMigrating probes RTS.Chare for every chare at every
// engine event across LB steps: a chare whose move is planned (its
// Location already names the destination) but that has not yet run there
// is packed or in flight, and Chare must still return its live object.
func TestChareFoundWhileMigrating(t *testing.T) {
	w := newOracleWorld(t, 1, 2, 4, xnet.DefaultConfig())
	r := charm.NewRTS(charm.Config{Machine: w.m, Net: w.net, Cores: w.cores(),
		Strategy: shiftEighth{}})
	objs := make([]charm.Chare, 64)
	lastPE := make([]int, 64)
	r.NewArray("w", 64, func(i int) charm.Chare {
		c := &peTracker{oracleChare: oracleChare{syncEvery: 5, doneAt: 30, syncDone: true}, lastPE: &lastPE[i]}
		c.rts, c.next = r, charm.ChareID{Array: "w", Index: (i + 1) % 64}
		objs[i] = c
		return c
	})
	for i := range lastPE {
		lastPE[i] = r.Location(charm.ChareID{Array: "w", Index: i})
	}
	r.Start()
	probes := 0
	for !r.Finished() {
		if !w.sh.Engine(0).Step() {
			t.Fatal("engine drained before the run finished")
		}
		for i, obj := range objs {
			id := charm.ChareID{Array: "w", Index: i}
			if r.Location(id) == lastPE[i] {
				continue
			}
			probes++
			if got := r.Chare(id); got != obj {
				t.Fatalf("t=%v: Chare(%v) = %v while moving to PE %d, want the live object",
					w.sh.Engine(0).Now(), id, got, r.Location(id))
			}
		}
	}
	if probes == 0 || r.Migrations() == 0 {
		t.Fatalf("no migration window observed (%d migrations)", r.Migrations())
	}
}

// shiftEighth moves every eighth chare to the next PE at each LB step.
type shiftEighth struct{}

func (shiftEighth) Name() string { return "shiftEighth" }
func (shiftEighth) Plan(st core.Stats) []core.Move {
	var moves []core.Move
	for _, tk := range st.Tasks {
		if tk.ID.Index%8 == 0 {
			moves = append(moves, core.Move{Task: tk.ID, To: (tk.PE + 1) % len(st.Cores)})
		}
	}
	return moves
}

// peTracker records the PE of its latest entry.
type peTracker struct {
	oracleChare
	lastPE *int
}

func (c *peTracker) Recv(ctx *charm.Ctx, data interface{}) float64 {
	*c.lastPE = ctx.PE()
	return c.oracleChare.Recv(ctx, data)
}

// badSender sends to one fixed destination from its Start entry.
type badSender struct{ to charm.ChareID }

func (c *badSender) PackSize() int { return 64 }
func (c *badSender) Recv(ctx *charm.Ctx, data interface{}) float64 {
	if _, ok := data.(charm.Start); ok {
		ctx.Send(c.to, oracleNote{}, 8)
	}
	return 0
}

// TestUnknownChareSendTable: a send to an unknown array or to an index
// outside the array panics with "send to unknown chare", and Location on
// an unknown chare panics as "unknown chare".
func TestUnknownChareSendTable(t *testing.T) {
	cases := []struct {
		name string
		to   charm.ChareID
	}{
		{"unknown array", charm.ChareID{Array: "ghost", Index: 0}},
		{"index == size", charm.ChareID{Array: "a", Index: 4}},
		{"index == -1", charm.ChareID{Array: "a", Index: -1}},
	}
	msgOf := func(fn func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		fn()
		return ""
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newOracleWorld(t, 1, 1, 2, xnet.DefaultConfig())
			r := charm.NewRTS(charm.Config{Machine: w.m, Net: w.net, Cores: w.cores()})
			r.NewArray("a", 4, func(int) charm.Chare { return &badSender{to: tc.to} })
			msg := msgOf(func() {
				r.Start()
				_ = w.sh.Engine(0).Run()
			})
			if !strings.Contains(msg, "send to unknown chare") {
				t.Fatalf("Ctx.Send to %v: panic %q, want send to unknown chare", tc.to, msg)
			}
			msg = msgOf(func() { r.Location(tc.to) })
			if !strings.Contains(msg, "charm: unknown chare") {
				t.Fatalf("Location(%v): panic %q, want unknown chare", tc.to, msg)
			}
		})
	}
}
