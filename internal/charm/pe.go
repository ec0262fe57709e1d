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
	// eng owns this PE's events — the core's shard engine. Every time read
	// on a PE execution path goes through it; reading another shard's
	// clock mid-window would return a ragged time.
	eng    *sim.Engine
	shard  int
	thread *machine.Thread

	// roster lists the slots of the chares resident here in (Array,
	// Index) order, maintained incrementally on install/uninstall. Every
	// deterministic iteration over a PE's chares (Start, stats gather,
	// resume, evacuation, reduction delivery) walks this slice — the
	// committed figures depend on exactly this order.
	roster []int

	appQ fifo[appDelivery]
	sysQ fifo[func()]

	running bool // an entry method (or pack/unpack burst) is in flight

	// In-flight entry state, valid while running. Kept on the PE (entries
	// are strictly sequential per PE) so completion needs no per-entry
	// closure; entryDone is the method value bound once at construction.
	curTo     int // slot
	curStart  sim.Time
	ctx       Ctx
	entryDone func()

	// Elasticity state. A retired PE executes no application work; its
	// core is offline (or about to be) until RestorePE.
	retired     bool
	wentOffline bool
	offlineAt   sim.Time

	// Load database for the current LB interval (the per-task wall times
	// live in the hosted chares' slots).
	intervalAt sim.Time // start of the interval (last resume)
	idleAtLB   sim.Time // core idle reading at interval start

	// AtSync state. synced holds the slots that called AtSync here this
	// interval (or arrived as synced migrants); a departed migrant's entry
	// stays until beginInterval. active counts the hosted chares not Done
	// and syncedActive those of them in synced — maintained at every
	// mutation (install, uninstall, Done, markSynced, unmarkSynced,
	// beginInterval) so the all-synced test is O(1).
	synced       map[int]bool
	active       int
	syncedActive int
	inSync       bool
	syncAt       sim.Time
	orderSeen    bool
	expectIn     int
	arrivedIn    int
	sentStats    bool
	doneSent     bool

	// Per-step scratch, reused across LB steps so the steady state
	// allocates nothing: the measured task records shipped to the master,
	// the outbound shipment manifest, and the resume recipient list.
	tasksScratch  []core.Task
	shipScratch   []shipment
	resumeScratch []int

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
	to   int // slot
	data interface{}
}

func newPE(r *RTS, index int, c *machine.Core) *pe {
	p := &pe{
		rts:    r,
		index:  index,
		core:   c,
		eng:    r.cfg.Machine.EngineFor(c.ID),
		shard:  r.cfg.Machine.ShardOf(c.ID),
		synced: make(map[int]bool),
	}
	p.thread = r.cfg.Machine.NewThread(fmt.Sprintf("%s/pe%d", r.name, index), c, r.cfg.ThreadWeight)
	p.entryDone = p.onEntryDone
	p.subtreeTotalMemo = -1
	p.hierReset()
	return p
}

func (p *pe) install(s int, c Chare) {
	r := p.rts
	sl := &r.slots[s]
	if sl.home >= 0 {
		panic(fmt.Sprintf("charm: chare %v already on PE %d", r.ids[s], sl.home))
	}
	sl.obj, sl.home = c, int32(p.index)
	at, _ := slices.BinarySearchFunc(p.roster, s, r.rosterCmp)
	p.roster = slices.Insert(p.roster, at, s)
	if !sl.done {
		p.active++
		if p.synced[s] {
			p.syncedActive++
		}
	}
}

// uninstall removes a chare from the PE's roster, returning the object
// (which the slot keeps, so RTS.Chare finds it in flight). It panics if
// the chare is not here — callers own that check when they want a more
// specific message.
func (p *pe) uninstall(s int) Chare {
	r := p.rts
	sl := &r.slots[s]
	if int(sl.home) != p.index {
		panic(fmt.Sprintf("charm: chare %v not on PE %d", r.ids[s], p.index))
	}
	sl.home = -1
	at, found := slices.BinarySearchFunc(p.roster, s, r.rosterCmp)
	if !found {
		panic(fmt.Sprintf("charm: roster out of sync with residence on PE %d", p.index))
	}
	p.roster = slices.Delete(p.roster, at, at+1)
	if !sl.done {
		p.active--
		if p.synced[s] {
			p.syncedActive--
		}
	}
	return sl.obj
}

// hosts reports whether the chare in slot s is resident on this PE.
func (p *pe) hosts(s int) bool { return int(p.rts.slots[s].home) == p.index }

// rosterCmp orders slots by their chares' (Array, Index) identity.
func (r *RTS) rosterCmp(a, b int) int { return r.ids[a].Compare(r.ids[b]) }

// markSynced adds slot s to this PE's synced set, counting it when it is
// a hosted chare that is not Done.
func (p *pe) markSynced(s int) {
	if p.synced[s] {
		return
	}
	p.synced[s] = true
	if p.hosts(s) && !p.rts.slots[s].done {
		p.syncedActive++
	}
}

// unmarkSynced removes slot s from this PE's synced set.
func (p *pe) unmarkSynced(s int) {
	if !p.synced[s] {
		return
	}
	delete(p.synced, s)
	if p.hosts(s) && !p.rts.slots[s].done {
		p.syncedActive--
	}
}

// resetLoadDB restarts load measurement from the current instant. Split
// from beginInterval so RestorePE can reset measurement on the new core
// without touching in-flight LB protocol flags. Only the hosted chares'
// walls are zeroed: a chare in flight keeps its wall, exactly the record
// an evacuee carries to its new home.
func (p *pe) resetLoadDB() {
	for _, s := range p.roster {
		p.rts.slots[s].wall = 0
	}
	p.intervalAt = p.eng.Now()
	_, idle := p.core.ProcStat()
	p.idleAtLB = idle
}

// markInSync flips this PE into the synchronized state. It also raises
// one unit of sequential demand: from the next
// event on this shard (and the next barrier globally) until the matching
// resume, the coordinator executes everything in global timestamp order,
// because the LB step's master-side handlers read state on every shard.
func (p *pe) markInSync() {
	p.inSync = true
	p.syncAt = p.eng.Now()
	p.rts.sh.RequireSequential()
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
	p.rts.sh.ReleaseSequential()
	if !p.rts.sh.Sequential() {
		p.rts.primeMemos()
	}
}

// beginInterval resets the load database at the start of an LB interval.
func (p *pe) beginInterval() {
	p.resetLoadDB()
	clear(p.synced)
	p.syncedActive = 0
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

func (p *pe) enqueueApp(to int, data interface{}) {
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
		p.unmarkSynced(d.to)
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
	r := p.rts
	if !p.hosts(d.to) {
		// The chare moved while this delivery sat in the queue (possible
		// only across an LB step); forward it.
		r.send(p.index, d.to, d.data, 64)
		p.pump()
		return
	}
	chare := r.slots[d.to].obj
	p.running = true
	p.curTo = d.to
	p.curStart = p.eng.Now()
	ctx := &p.ctx
	ctx.rts, ctx.pe, ctx.self = r, p, d.to
	ctx.sends = ctx.sends[:0]
	ctx.contribs = ctx.contribs[:0]
	ctx.atSync, ctx.done = false, false
	cost := chare.Recv(ctx, d.data)
	if cost < 0 {
		panic(fmt.Sprintf("charm: chare %v returned negative cost %v", r.ids[d.to], cost))
	}
	cost += r.cfg.MsgOverheadCPU
	p.thread.Run(cost, p.entryDone)
}

// onEntryDone fires when the in-flight entry's CPU burst has been served.
func (p *pe) onEntryDone() {
	now := p.eng.Now()
	p.running = false
	p.rts.slots[p.curTo].wall += float64(now - p.curStart)
	if rec := p.rts.cfg.Trace; rec != nil {
		kind := trace.KindTask
		if p.rts.cfg.TraceAsBackground {
			kind = trace.KindBackground
		}
		rec.Add(trace.Segment{
			Core: p.core.ID, Start: p.curStart, End: now,
			Kind: kind, Label: p.rts.ids[p.curTo].String(),
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
		p.contribute(p.rts.ids[ctx.self], c)
	}
	if ctx.done {
		p.rts.chareDone(p, ctx.self)
	}
	if ctx.atSync {
		if p.synced[ctx.self] {
			panic(fmt.Sprintf("charm: chare %v called AtSync twice in one interval", p.rts.ids[ctx.self]))
		}
		p.markSynced(ctx.self)
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
