package charm

import (
	"fmt"
	"slices"

	"cloudlb/internal/core"
	"cloudlb/internal/obs"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
)

// The AtSync load balancing protocol:
//
//  1. Every chare calls AtSync. When all chares on a PE have synced, the
//     PE measures its interval — per-task wall times from the load
//     database and the background load O_p from Eq. 2 — and sends the
//     stats to PE 0 (the master).
//  2. PEs that own no chares cannot observe the sync point themselves, so
//     once the master has stats from every non-empty PE it probes the
//     empty ones, which respond with their (taskless) measurements.
//  3. With all P samples, the master runs the strategy, updates the
//     location table, and sends each PE its migration orders along with
//     the number of inbound objects to expect.
//  4. PEs serialize (CPU burst), transmit objects over the interconnect,
//     deserialize inbound objects (CPU burst), and report completion.
//  5. The master broadcasts resume; every PE resets its load database and
//     delivers the built-in Resume message to its chares.
//
// With a nil strategy the whole protocol is skipped: AtSync immediately
// resumes the calling chare, so "noLB" runs pay no synchronization cost,
// matching the paper's baseline.

// Message size constants (bytes) for protocol traffic.
const (
	statsMsgBase  = 32
	orderMsgBase  = 32
	perMoveBytes  = 16
	syncDoneBytes = 16
	probeBytes    = 16
	resumeMsgBase = 32
	migrateHeader = 64
)

// lbState is the master-side (PE 0) state of one LB step.
type lbState struct {
	active     bool
	stats      core.Stats
	statsCount int
	probed     bool
	doneCount  int
	moves      []core.Move
	startAt    sim.Time
}

type peStats struct {
	pe      int
	tasks   []core.Task
	bg      float64
	speed   float64
	offline bool
}

// shipment is one outbound object in a PE's migration manifest. The
// manifest itself lives in per-PE scratch (pe.shipScratch) reused across
// LB steps.
type shipment struct {
	slot  int
	obj   Chare
	bytes int
	to    int
}

// maybeEnterSync fires when a chare syncs: once every local chare has, the
// PE measures and reports.
func (p *pe) maybeEnterSync(self int) {
	if p.rts.cfg.Strategy == nil {
		// noLB short-circuit: resume just this chare immediately. The
		// chare stays marked synced until the Resume is delivered, so
		// already-queued messages cannot drive it past the sync point.
		p.enqueueApp(self, Resume{})
		return
	}
	// A retired PE never initiates a sync: its chares are on their way to
	// other PEs and will complete the count there. (It still answers the
	// master's empty-PE probe so the gather can total up.)
	if p.retired || p.inSync {
		return
	}
	// Chares that called Done will never sync again; only the remaining
	// active ones have to agree. (Without faults the chares run in
	// lockstep and this is the plain all-local-chares-synced condition.)
	if p.active == 0 || p.syncedActive != p.active {
		return
	}
	if p.rts.cfg.HierarchicalLB {
		p.hierOnLocalSynced()
		return
	}
	if p.rts.dist != nil {
		p.distEnterSync()
		return
	}
	p.enterSync()
}

func (p *pe) enterSync() {
	p.markInSync()
	p.sendStats()
}

// measureStats snapshots this PE's load database and background load
// (paper Eq. 2) for the interval since the last resume.
func (p *pe) measureStats() peStats {
	now := p.eng.Now()
	tlb := float64(now - p.intervalAt)
	_, idleNow := p.core.ProcStat()
	idleDelta := float64(idleNow - p.idleAtLB)

	st := peStats{pe: p.index, speed: p.core.Speed()}
	sumTasks := 0.0
	// The roster is already in the canonical (Array, Index) order; the
	// task records are built into a per-PE scratch reused across steps
	// (the master copies them into its gather before the next step).
	p.tasksScratch = p.tasksScratch[:0]
	r := p.rts
	for _, s := range p.roster {
		sl := &r.slots[s]
		sumTasks += sl.wall
		p.tasksScratch = append(p.tasksScratch, core.Task{
			ID: r.ids[s], PE: p.index, Load: sl.wall, Bytes: sl.obj.PackSize(),
		})
	}
	st.tasks = p.tasksScratch
	// Paper Eq. 2: O_p = T_lb − Σ t_i − t_idle. Interference inflates the
	// task terms, so the subtraction can go slightly negative; clamp.
	bg := tlb - sumTasks - idleDelta
	if bg < 0 {
		bg = 0
	}
	st.bg = bg
	st.offline = p.retired
	p.sentStats = true
	r.met.measured(p.index, sumTasks, bg)
	return st
}

// sendStats measures the interval and ships the load database to PE 0
// (flat mode).
func (p *pe) sendStats() {
	st := p.measureStats()
	bytes := statsMsgBase + p.rts.cfg.StatsBytesPerTask*len(st.tasks)
	master := p.rts.pes[0]
	p.rts.netSend(p.core.ID, master.core.ID, bytes, func() {
		master.enqueueSys(func() { p.rts.masterStats(st) })
	})
}

// masterStats runs on PE 0 as each PE's measurement arrives.
func (r *RTS) masterStats(st peStats) {
	lb := &r.lb
	if !lb.active {
		lb.active = true
		lb.stats.Tasks = lb.stats.Tasks[:0]
		lb.stats.Cores = lb.stats.Cores[:0]
		lb.stats.WallSinceLB = 0
		lb.statsCount = 0
		lb.probed = false
		lb.doneCount = 0
		// Master-side handlers always run with the master PE's clock at the
		// event time (sequential demand was raised before any stats message
		// could be sent), so its engine is the one to read.
		lb.startAt = r.pes[0].eng.Now()
	}
	lb.stats.Tasks = append(lb.stats.Tasks, st.tasks...)
	lb.stats.Cores = append(lb.stats.Cores, core.CoreSample{PE: st.pe, Background: st.bg, Speed: st.speed, Offline: st.offline})
	lb.statsCount++

	if lb.statsCount == len(r.pes) {
		r.masterPlan()
		return
	}
	if !lb.probed && lb.statsCount == r.nonEmptyPEs() {
		lb.probed = true
		r.probeEmptyPEs()
	}
}

// nonEmptyPEs counts PEs that can still observe a sync point themselves —
// those with at least one active (not Done) chare. The rest get probed.
func (r *RTS) nonEmptyPEs() int {
	n := 0
	for _, p := range r.pes {
		if p.active > 0 {
			n++
		}
	}
	return n
}

// probeEmptyPEs probes every PE without active chares that has not
// reported yet.
func (r *RTS) probeEmptyPEs() {
	for _, p := range r.pes {
		if p.active == 0 && !p.sentStats {
			r.probeEmpty(p)
		}
	}
}

func (r *RTS) probeEmpty(p *pe) {
	master := r.pes[0]
	r.netSend(master.core.ID, p.core.ID, probeBytes, func() {
		p.enqueueSys(func() { p.syncReport() })
	})
}

// planMoves sorts and validates the gathered statistics, runs the
// strategy, applies the new mapping to the location table, and returns
// the per-PE migration orders and inbound counts, indexed by PE. Both are
// RTS-level scratch reused across LB steps (a step's orders are consumed
// before the next step can begin). It is shared between the flat gather
// and the hierarchical tree protocol.
func (r *RTS) planMoves(stats *core.Stats, wallSince sim.Time) (outs [][]core.Move, ins []int, moves []core.Move) {
	// Deterministic strategy input: sort cores by PE, tasks by ID. Both
	// comparators are strict total orders (PEs and IDs are unique), so the
	// unstable sort is deterministic.
	slices.SortFunc(stats.Cores, func(a, b core.CoreSample) int { return a.PE - b.PE })
	slices.SortFunc(stats.Tasks, func(a, b core.Task) int { return a.ID.Compare(b.ID) })
	stats.WallSinceLB = float64(wallSince)
	if err := core.Validate(*stats); err != nil {
		panic(fmt.Sprintf("charm: invalid LB stats: %v", err))
	}

	// The centralized gather concentrates O(all tasks) planning state on
	// the master; record it against the same per-PE high-water series the
	// distributed protocol feeds, so Figure 7 can compare the two shapes.
	r.met.peakState(0, statsMsgBase+r.cfg.StatsBytesPerTask*len(stats.Tasks)+32*len(stats.Cores))

	// instr is nil unless metrics or an LB timeline are attached; all its
	// methods are nil-safe, so the uninstrumented path stays unchanged.
	instr := r.met.beginStep(r.lbSteps+1, r.pes[0].eng.Now(), wallSince, stats)
	// The LB-step span measures the strategy's host wall time — the real
	// CPU cost of planning, which the anomaly thresholds watch — while the
	// args carry the virtual-time context (step number, input size, plan).
	stepSpan := r.cfg.Obs.Start(obs.CatLB, "lb-step", r.cfg.ObsTID)
	instr.planStart()
	moves = r.cfg.Strategy.Plan(*stats)
	instr.planDone(moves)
	stepSpan.End("rts", r.name, "step", r.lbSteps+1,
		"pes", len(stats.Cores), "tasks", len(stats.Tasks), "moves", len(moves))
	// Drop no-op moves defensively.
	outs, ins = r.outsScratch, r.insScratch
	for i := range outs {
		outs[i] = outs[i][:0]
		ins[i] = 0
	}
	for _, m := range moves {
		s, ok := r.slotOf(m.Task)
		if !ok {
			panic(fmt.Sprintf("charm: strategy moved unknown task %v", m.Task))
		}
		from := r.route[s]
		if m.To < 0 || m.To >= len(r.pes) {
			panic(fmt.Sprintf("charm: strategy moved %v to invalid PE %d", m.Task, m.To))
		}
		if r.pes[m.To].retired {
			// The PE set is frozen for the duration of a step (elastic ops
			// are deferred), so the stats marked this PE offline and a
			// correct strategy cannot have targeted it.
			panic(fmt.Sprintf("charm: strategy moved %v to revoked PE %d", m.Task, m.To))
		}
		if m.To == from {
			continue
		}
		outs[from] = append(outs[from], m)
		ins[m.To]++
		r.route[s] = m.To
		r.migrations++
		instr.moveApplied(m.Task, from, m.To)
	}
	instr.finish(stats)
	return outs, ins, moves
}

// masterPlan runs the strategy and fans out migration orders (flat mode).
func (r *RTS) masterPlan() {
	lb := &r.lb
	outs, ins, moves := r.planMoves(&lb.stats, r.pes[0].eng.Now()-lb.startAt)
	lb.moves = moves

	master := r.pes[0]
	for _, p := range r.pes {
		p := p
		order := outs[p.index]
		expect := ins[p.index]
		bytes := orderMsgBase + perMoveBytes*len(order)
		r.netSend(master.core.ID, p.core.ID, bytes, func() {
			p.enqueueSys(func() { p.onOrder(order, expect) })
		})
	}
}

// onOrder packs and ships this PE's outgoing objects and records how many
// inbound objects to await.
func (p *pe) onOrder(order []core.Move, expect int) {
	p.orderSeen = true
	p.expectIn = expect
	if len(order) == 0 {
		p.maybeSyncDone()
		return
	}
	packCPU := 0.0
	p.shipScratch = p.shipScratch[:0]
	for _, m := range order {
		s, ok := p.rts.slotOf(m.Task)
		if !ok || !p.hosts(s) {
			panic(fmt.Sprintf("charm: PE %d ordered to move absent chare %v", p.index, m.Task))
		}
		obj := p.uninstall(s)
		b := obj.PackSize()
		packCPU += float64(b) * p.rts.cfg.PackCPUPerByte
		p.shipScratch = append(p.shipScratch, shipment{slot: s, obj: obj, bytes: b, to: m.To})
	}
	p.runBurst(packCPU, func() {
		for _, s := range p.shipScratch {
			s := s
			dst := p.rts.pes[s.to]
			p.rts.netSend(p.core.ID, dst.core.ID, s.bytes+migrateHeader, func() {
				dst.enqueueSys(func() { dst.receiveMigrant(s.slot, s.obj, s.bytes) })
			})
		}
		p.maybeSyncDone()
	})
}

// receiveMigrant deserializes an inbound object (CPU burst) and installs it.
func (p *pe) receiveMigrant(s int, obj Chare, bytes int) {
	p.runBurst(float64(bytes)*p.rts.cfg.PackCPUPerByte, func() {
		p.install(s, obj)
		// A migrant synced on its source PE — it would not have moved
		// otherwise. Marking it here keeps the resume rule uniform:
		// Resume goes exactly to the synced chares.
		p.markSynced(s)
		p.arrivedIn++
		p.maybeSyncDone()
	})
}

// maybeSyncDone reports completion once this PE has shipped all its
// outbound objects and installed all inbound ones — to the master in
// flat mode, aggregated up the tree in hierarchical mode.
func (p *pe) maybeSyncDone() {
	if !p.inSync || !p.orderSeen || p.doneSent || p.running {
		return
	}
	if p.arrivedIn < p.expectIn {
		return
	}
	p.doneSent = true
	if p.rts.cfg.HierarchicalLB {
		p.hier.selfDone = true
		p.hierMaybeSyncDone()
		return
	}
	master := p.rts.pes[0]
	p.rts.netSend(p.core.ID, master.core.ID, syncDoneBytes, func() {
		master.enqueueSys(func() { p.rts.masterSyncDone() })
	})
}

// masterSyncDone fires per PE; when all have reported, the step resumes.
func (r *RTS) masterSyncDone() {
	lb := &r.lb
	lb.doneCount++
	if lb.doneCount < len(r.pes) {
		return
	}
	lb.active = false
	r.lbSteps++
	r.met.lbSteps.Inc()
	master := r.pes[0]
	bytes := resumeMsgBase + perMoveBytes*len(lb.moves)
	for _, p := range r.pes {
		p := p
		r.netSend(master.core.ID, p.core.ID, bytes, func() {
			p.enqueueSys(func() { p.onResume() })
		})
	}
}

// onResume closes the LB step on this PE and restarts its chares.
func (p *pe) onResume() {
	now := p.eng.Now()
	p.rts.lbWall += now - p.syncAt
	if rec := p.rts.cfg.Trace; rec != nil {
		rec.Add(trace.Segment{
			Core: p.core.ID, Start: p.syncAt, End: now, Kind: trace.KindLB, Label: "lb-step",
		})
	}
	// Resume goes exactly to the chares that synced into this step (all of
	// them, in the absence of faults). A chare evacuated here mid-iteration
	// never reached its sync point and must not be pushed past it; its own
	// pending messages drive it on. The recipients are collected in roster
	// order before beginInterval clears the synced set in place.
	p.resumeScratch = p.resumeScratch[:0]
	for _, s := range p.roster {
		if p.synced[s] {
			p.resumeScratch = append(p.resumeScratch, s)
		}
	}
	p.beginInterval()
	for _, s := range p.resumeScratch {
		p.enqueueApp(s, Resume{})
	}
	// The last PE to resume applies any revocation/restore that arrived
	// mid-step, before application work restarts.
	p.rts.drainElastic()
}
