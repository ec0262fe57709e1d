package charm

import (
	"fmt"
	"slices"

	"cloudlb/internal/core"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
)

// pe is one processing element: a worker thread pinned to a core, a message
// queue, the chares living there, and the load database for the interval
// since the last LB step.
type pe struct {
	rts   *RTS
	index int
	core  *machine.Core
	// eng owns this PE's events — the core's shard engine under a sharded
	// scheduler, the single machine engine otherwise. Every time read on a
	// PE execution path goes through it; reading another shard's clock
	// mid-window would return a ragged time.
	eng    *sim.Engine
	shard  int
	thread *machine.Thread

	local map[ChareID]Chare
	// roster caches p.local's keys in (Array, Index) order, maintained
	// incrementally on install/uninstall. Every deterministic iteration
	// over a PE's chares (Start, stats gather, resume, evacuation,
	// reduction delivery) walks this slice instead of rebuilding and
	// sorting the key set — the committed figures depend on exactly this
	// order, so the cache must never drift from the map.
	roster []ChareID

	appQ fifo[appDelivery]
	sysQ fifo[func()]

	running bool // an entry method (or pack/unpack burst) is in flight

	// In-flight entry state, valid while running. Kept on the PE (entries
	// are strictly sequential per PE) so completion needs no per-entry
	// closure; entryDone is the method value bound once at construction.
	curTo     ChareID
	curStart  sim.Time
	ctx       Ctx
	entryDone func()

	// Elasticity state. A retired PE executes no application work; its
	// core is offline (or about to be) until RestorePE.
	retired     bool
	wentOffline bool
	offlineAt   sim.Time

	// Load database for the current LB interval.
	taskWall   map[ChareID]float64
	intervalAt sim.Time // start of the interval (last resume)
	idleAtLB   sim.Time // core idle reading at interval start

	// AtSync state.
	synced    map[ChareID]bool
	inSync    bool
	syncAt    sim.Time
	orderSeen bool
	expectIn  int
	arrivedIn int
	sentStats bool
	doneSent  bool

	// Per-step scratch, reused across LB steps so the steady state
	// allocates nothing: the measured task records shipped to the master,
	// the outbound shipment manifest, and the resume recipient list.
	tasksScratch  []core.Task
	shipScratch   []shipment
	resumeScratch []ChareID

	// PE-local reduction accumulators and subtree-size memos (valid
	// between LB steps; placements only change inside them).
	reds             map[redKey]*redAcc
	subtreeMemo      map[string]int
	subtreeTotalMemo int

	// Hierarchical LB protocol state (Config.HierarchicalLB).
	hier hierState

	// Distributed LB protocol state (Config.Strategy implementing
	// core.DistributedStrategy).
	diff diffState
}

type appDelivery struct {
	to   ChareID
	data interface{}
}

func newPE(r *RTS, index int, c *machine.Core) *pe {
	p := &pe{
		rts:      r,
		index:    index,
		core:     c,
		eng:      r.cfg.Machine.EngineFor(c.ID),
		shard:    r.cfg.Machine.ShardOf(c.ID),
		local:    make(map[ChareID]Chare),
		taskWall: make(map[ChareID]float64),
		synced:   make(map[ChareID]bool),
	}
	p.thread = r.cfg.Machine.NewThread(fmt.Sprintf("%s/pe%d", r.name, index), c, r.cfg.ThreadWeight)
	p.entryDone = p.onEntryDone
	p.subtreeTotalMemo = -1
	p.hierReset()
	return p
}

func (p *pe) install(id ChareID, c Chare) {
	if _, dup := p.local[id]; dup {
		panic(fmt.Sprintf("charm: chare %v already on PE %d", id, p.index))
	}
	p.local[id] = c
	at, _ := slices.BinarySearchFunc(p.roster, id, ChareID.Compare)
	p.roster = slices.Insert(p.roster, at, id)
}

// uninstall removes a chare from the PE's map and roster, returning the
// object. It panics if the chare is not here — callers own that check when
// they want a more specific message.
func (p *pe) uninstall(id ChareID) Chare {
	obj, ok := p.local[id]
	if !ok {
		panic(fmt.Sprintf("charm: chare %v not on PE %d", id, p.index))
	}
	delete(p.local, id)
	at, found := slices.BinarySearchFunc(p.roster, id, ChareID.Compare)
	if !found {
		panic(fmt.Sprintf("charm: roster out of sync with chare map on PE %d", p.index))
	}
	p.roster = slices.Delete(p.roster, at, at+1)
	return obj
}

// resetLoadDB restarts load measurement from the current instant. Split
// from beginInterval so RestorePE can reset measurement on the new core
// without touching in-flight LB protocol flags.
func (p *pe) resetLoadDB() {
	clear(p.taskWall)
	p.intervalAt = p.eng.Now()
	_, idle := p.core.ProcStat()
	p.idleAtLB = idle
}

// markInSync flips this PE into the synchronized state. Under a sharded
// scheduler it also raises one unit of sequential demand: from the next
// event on this shard (and the next barrier globally) until the matching
// resume, the coordinator executes everything in global timestamp order,
// because the LB step's master-side handlers read state on every shard.
func (p *pe) markInSync() {
	p.inSync = true
	p.syncAt = p.eng.Now()
	if sh := p.rts.sh; sh != nil {
		sh.RequireSequential()
	}
}

// exitSync leaves the synchronized state, releasing the demand markInSync
// raised. When the last holder releases (no LB step or quiescence wait
// outstanding anywhere), placements are final again and the reduction
// memos are re-primed before parallel windows resume.
func (p *pe) exitSync() {
	if !p.inSync {
		return
	}
	p.inSync = false
	sh := p.rts.sh
	if sh == nil {
		return
	}
	sh.ReleaseSequential()
	if !sh.Sequential() {
		p.rts.primeMemos()
	}
}

// beginInterval resets the load database at the start of an LB interval.
func (p *pe) beginInterval() {
	p.resetLoadDB()
	clear(p.synced)
	p.exitSync()
	p.orderSeen = false
	p.expectIn = 0
	p.arrivedIn = 0
	p.sentStats = false
	p.doneSent = false
	clear(p.subtreeMemo)
	p.subtreeTotalMemo = -1
	p.hierReset()
	p.diffReset()
}

func (p *pe) enqueueApp(to ChareID, data interface{}) {
	p.appQ.push(appDelivery{to: to, data: data})
}

func (p *pe) enqueueSys(fn func()) {
	p.sysQ.push(fn)
	p.pump()
}

// pump drives the PE scheduler: system work first (it only exists during
// LB phases, when application traffic is quiesced), then one application
// entry at a time.
//
// Deliveries addressed to a chare that has called AtSync are held back
// until its Resume arrives — a chare must not execute past its load
// balancing point (doing so would, e.g., make a stencil chare re-send
// its post-sync ghost edges after Resume). Held messages keep their
// relative order.
func (p *pe) pump() {
	for !p.running && p.sysQ.len() > 0 {
		p.sysQ.take(0)()
	}
	if p.running || p.inSync || p.retired || p.appQ.len() == 0 {
		p.rts.maybeQuiesce()
		return
	}
	idx := p.nextRunnable()
	if idx < 0 {
		p.rts.maybeQuiesce()
		return
	}
	d := p.appQ.take(idx)
	if _, isResume := d.data.(Resume); isResume {
		delete(p.synced, d.to)
	}
	p.execute(d)
}

// nextRunnable returns the position in appQ of the first delivery that may
// run now — a Resume, or a message for a chare that has not synced — or
// -1 if every queued delivery is held. With no chare synced that is the
// head, found without a scan.
func (p *pe) nextRunnable() int {
	if len(p.synced) == 0 {
		return 0
	}
	for i, d := range p.appQ.live() {
		if _, isResume := d.data.(Resume); isResume || !p.synced[d.to] {
			return i
		}
	}
	return -1
}

// execute runs one entry method: the handler computes eagerly, then the
// PE's thread contends for the core for the reported CPU cost; sends and
// state transitions take effect when the burst completes. The Ctx and the
// completion callback are both reused across entries (one entry per PE at
// a time), so steady-state execution allocates nothing.
func (p *pe) execute(d appDelivery) {
	chare, ok := p.local[d.to]
	if !ok {
		// The chare moved while this delivery sat in the queue (possible
		// only across an LB step); forward it.
		p.rts.send(p.index, d.to, d.data, 64)
		p.pump()
		return
	}
	p.running = true
	p.curTo = d.to
	p.curStart = p.eng.Now()
	ctx := &p.ctx
	ctx.rts, ctx.pe, ctx.self = p.rts, p, d.to
	ctx.sends = ctx.sends[:0]
	ctx.contribs = ctx.contribs[:0]
	ctx.atSync, ctx.done = false, false
	cost := chare.Recv(ctx, d.data)
	if cost < 0 {
		panic(fmt.Sprintf("charm: chare %v returned negative cost %v", d.to, cost))
	}
	cost += p.rts.cfg.MsgOverheadCPU
	p.thread.Run(cost, p.entryDone)
}

// onEntryDone fires when the in-flight entry's CPU burst has been served.
func (p *pe) onEntryDone() {
	now := p.eng.Now()
	p.running = false
	p.taskWall[p.curTo] += float64(now - p.curStart)
	if rec := p.rts.cfg.Trace; rec != nil {
		kind := trace.KindTask
		if p.rts.cfg.TraceAsBackground {
			kind = trace.KindBackground
		}
		rec.Add(trace.Segment{
			Core: p.core.ID, Start: p.curStart, End: now,
			Kind: kind, Label: p.curTo.String(),
		})
	}
	p.afterEntry(&p.ctx)
	p.pump()
}

// afterEntry applies the effects an entry method produced: outgoing
// messages, reduction contributions, completion, and AtSync.
func (p *pe) afterEntry(ctx *Ctx) {
	for _, m := range ctx.sends {
		if p.rts.dist != nil {
			p.diffTrackComm(ctx.self, m.to, m.bytes)
		}
		p.rts.send(p.index, m.to, m.data, m.bytes)
	}
	for _, c := range ctx.contribs {
		p.contribute(ctx.self, c)
	}
	if ctx.done {
		p.rts.chareDone(p, ctx.self)
	}
	if ctx.atSync {
		if p.synced[ctx.self] {
			panic(fmt.Sprintf("charm: chare %v called AtSync twice in one interval", ctx.self))
		}
		p.synced[ctx.self] = true
		p.maybeEnterSync(ctx.self)
	}
}

// runBurst charges a CPU burst (e.g. pack/unpack work) to the PE thread
// and then continues. It shares the running flag with entry execution.
func (p *pe) runBurst(cpu float64, then func()) {
	if p.running {
		panic("charm: burst while entry in flight")
	}
	p.running = true
	p.thread.Run(cpu, func() {
		p.running = false
		then()
		p.pump()
	})
}
