package charm

import (
	"fmt"
	"time"

	"cloudlb/internal/core"
)

// Distributed load balancing protocol (a core.DistributedStrategy in
// Config.Strategy): no PE ever gathers the global task list. The flat
// protocol's steps 1–3 are replaced by a multi-round neighbor exchange:
//
//  1. When a PE's chares all sync, it measures its interval (the same
//     Eq. 2 measurement as the flat gather), builds its planner from the
//     local records plus the interval's per-chare neighbor communication
//     volumes, and sends PE 0 an O(1) "ready" note — never its tasks.
//     PE 0 probes chare-less PEs exactly as the flat master does.
//  2. When every PE is ready, round 1 fans out down the reduction tree.
//     Each round, every PE sends its O(1) load summary to its topology
//     neighbors, plans against the received snapshot, announces to each
//     neighbor what it is handing over (possibly nothing), and ships the
//     objects peer-to-peer. Announces precede objects on the same
//     in-order links, so a receiver always knows how many objects to
//     expect.
//  3. Once a PE has planned, applied its neighbors' announces, shipped
//     its outbound objects and installed its inbound ones, it folds its
//     termination sample with its tree children's and forwards the merge
//     up. The root decides: another round (fan-out down the tree) or
//     finish (the resume wave of the flat protocol).
//
// Messages can arrive at most one round early (a neighbor that saw the
// continue wave first), so every per-neighbor and per-child stream is
// consumed through a FIFO queue, one entry per round. Per-PE planning
// state stays O(local tasks + neighbors); the only global traffic is the
// O(1) ready note and the O(1) termination samples.

// diffCastBytes sizes the round-control fan-out message; diffTermBytes
// the termination sample (four floats plus header).
const (
	diffCastBytes = 16
	diffTermBytes = 48
)

// diffState is one PE's state in the distributed protocol.
type diffState struct {
	planner core.DistributedPlanner
	round   int
	inRound bool // between round fan-out and this PE's sample send

	planned    bool
	applied    bool // this round's inbound announces handed to the planner
	shipped    bool
	sampleSent bool
	expectObjs int
	gotObjs    int

	// Per-neighbor-slot FIFO queues (summaries and announces) and the
	// per-tree-child sample queue; entries can arrive one round early.
	sumQ  [][]core.PeerLoad
	annQ  [][][]core.TransferTask
	termQ [][]core.TermSample

	// epoch numbers this PE's LB intervals (diffReset advances it); a
	// communication row (RTS.comm) is live for this PE only while it
	// carries this PE's index and current epoch.
	epoch uint32

	// Scratch reused across steps/rounds.
	taskScratch  []core.TransferTask
	affScratch   [][]float64
	peersScratch []core.PeerLoad
	slotScratch  [][]core.TransferTask
}

// distMasterState is PE 0's readiness bookkeeping for one step.
type distMasterState struct {
	readyCount int
	probed     bool
	rounds     int
}

// slotIn returns pe's position in a neighbor list, -1 if absent.
func slotIn(nbr []int, pe int) int {
	for i, q := range nbr {
		if q == pe {
			return i
		}
	}
	return -1
}

// distEnterSync measures this PE's interval, builds its planner from the
// strictly local records, and reports readiness to PE 0.
func (p *pe) distEnterSync() {
	p.markInSync()
	st := p.measureStats()
	r := p.rts
	d := &p.diff
	nbr := r.distNbr[p.index]
	if d.sumQ == nil {
		d.sumQ = make([][]core.PeerLoad, len(nbr))
		d.annQ = make([][][]core.TransferTask, len(nbr))
		d.termQ = make([][]core.TermSample, len(r.treeChildren(p.index)))
	}
	d.taskScratch = d.taskScratch[:0]
	d.affScratch = d.affScratch[:0]
	for i, tk := range st.tasks {
		d.taskScratch = append(d.taskScratch, core.TransferTask{ID: tk.ID, Load: tk.Load, Bytes: tk.Bytes})
		d.affScratch = append(d.affScratch, p.commRow(p.roster[i]))
	}
	d.planner = r.dist.NewPlanner(core.LocalPE{
		PE: p.index, Background: st.bg, Speed: st.speed, Offline: st.offline,
		Tasks: d.taskScratch, Affinity: d.affScratch,
	}, len(r.pes))

	load, bg, pe := d.planner.Summary().Load, st.bg, p.index
	master := r.pes[0]
	r.netSend(p.core.ID, master.core.ID, syncDoneBytes, func() {
		master.enqueueSys(func() { r.distMasterReady(pe, load, bg) })
	})
}

// distMasterReady runs on PE 0 as each PE's O(1) ready note arrives; the
// chare-less-PE probing mirrors the flat masterStats.
func (r *RTS) distMasterReady(peIdx int, load, bg float64) {
	lb := &r.lb
	d := &r.distLB
	if !lb.active {
		lb.active = true
		lb.startAt = r.pes[0].eng.Now()
		d.readyCount = 0
		d.probed = false
		d.rounds = 0
		r.distInstr = r.met.beginDistStep(r.lbSteps+1, lb.startAt, len(r.pes))
	}
	r.distInstr.ready(peIdx, load, bg)
	d.readyCount++
	if d.readyCount == len(r.pes) {
		r.pes[0].diffCast(1, false)
		return
	}
	if !d.probed && d.readyCount == r.nonEmptyPEs() {
		d.probed = true
		r.probeEmptyPEs()
	}
}

// diffCast fans a round start (or the finishing resume) down the
// reduction tree. Children are contacted in deterministic order before
// this PE acts, exactly like hierResume.
func (p *pe) diffCast(round int, finish bool) {
	r := p.rts
	for _, ci := range r.treeChildren(p.index) {
		child := r.pes[ci]
		r.netSend(p.core.ID, child.core.ID, diffCastBytes, func() {
			child.enqueueSys(func() { child.diffCast(round, finish) })
		})
	}
	if finish {
		p.onResume()
		return
	}
	p.diffBeginRound(round)
}

// diffBeginRound resets per-round state and sends this PE's summary to
// every neighbor.
func (p *pe) diffBeginRound(round int) {
	r := p.rts
	d := &p.diff
	d.round = round
	d.inRound = true
	d.planned, d.applied, d.shipped, d.sampleSent = false, false, false, false
	d.expectObjs, d.gotObjs = -1, 0
	nbr := r.distNbr[p.index]
	if len(nbr) == 0 {
		// Single-PE runtime: plan against no peers; nothing can move.
		t0 := time.Now()
		d.planner.Plan(nil)
		r.distInstr.planAdd(time.Since(t0))
		r.distInstr.peakState(p.index, d.planner.StateBytes())
		d.planned, d.applied, d.shipped = true, true, true
		d.expectObjs = 0
		p.diffMaybeFinishRound()
		return
	}
	sum := d.planner.Summary()
	for _, ni := range nbr {
		q := r.pes[ni]
		back := slotIn(r.distNbr[ni], p.index)
		r.netSend(p.core.ID, q.core.ID, statsMsgBase, func() {
			q.enqueueSys(func() { q.diffOnSummary(back, sum) })
		})
	}
	p.diffMaybePlan()
}

func (p *pe) diffOnSummary(slot int, s core.PeerLoad) {
	p.diff.sumQ[slot] = append(p.diff.sumQ[slot], s)
	p.diffMaybePlan()
}

// diffMaybePlan runs the planner once one summary per neighbor is queued
// for the current round, then announces and ships the transfers.
func (p *pe) diffMaybePlan() {
	d := &p.diff
	if !d.inRound || d.planned {
		return
	}
	nbr := p.rts.distNbr[p.index]
	for slot := range nbr {
		if len(d.sumQ[slot]) == 0 {
			return
		}
	}
	d.peersScratch = d.peersScratch[:0]
	for slot := range nbr {
		d.peersScratch = append(d.peersScratch, d.sumQ[slot][0])
		d.sumQ[slot] = d.sumQ[slot][1:]
	}
	d.planned = true
	t0 := time.Now()
	transfers := d.planner.Plan(d.peersScratch)
	p.rts.distInstr.planAdd(time.Since(t0))
	p.rts.distInstr.peakState(p.index, d.planner.StateBytes())
	p.diffSendTransfers(transfers)
	p.diffMaybeApply()
}

// diffSendTransfers announces this round's hand-offs to every neighbor
// (empty announces included — the receiver counts inbound objects from
// them) and ships the objects. Announces go out before the pack burst,
// so on each in-order link the announce precedes the objects.
func (p *pe) diffSendTransfers(transfers []core.Transfer) {
	r := p.rts
	d := &p.diff
	nbr := r.distNbr[p.index]
	if d.slotScratch == nil {
		d.slotScratch = make([][]core.TransferTask, len(nbr))
	}
	byslot := d.slotScratch
	for i := range byslot {
		byslot[i] = nil
	}
	for _, tr := range transfers {
		slot := slotIn(nbr, tr.To)
		if slot < 0 {
			panic(fmt.Sprintf("charm: distributed strategy sent tasks from PE %d to non-neighbor PE %d", p.index, tr.To))
		}
		if r.pes[tr.To].retired {
			// The PE set is frozen for the whole step and the peer summary
			// was flagged offline; a correct planner cannot target it.
			panic(fmt.Sprintf("charm: distributed strategy handed load to revoked PE %d", tr.To))
		}
		byslot[slot] = tr.Tasks
	}
	for slot, ni := range nbr {
		q := r.pes[ni]
		back := slotIn(r.distNbr[ni], p.index)
		tasks := byslot[slot]
		r.netSend(p.core.ID, q.core.ID, orderMsgBase+perMoveBytes*len(tasks), func() {
			q.enqueueSys(func() { q.diffOnAnnounce(back, tasks) })
		})
	}
	packCPU := 0.0
	p.shipScratch = p.shipScratch[:0]
	for slot, ni := range nbr {
		for _, tk := range byslot[slot] {
			s, ok := r.slotOf(tk.ID)
			if !ok || !p.hosts(s) {
				panic(fmt.Sprintf("charm: PE %d planned to move absent chare %v", p.index, tk.ID))
			}
			obj := p.uninstall(s)
			b := obj.PackSize()
			packCPU += float64(b) * r.cfg.PackCPUPerByte
			p.shipScratch = append(p.shipScratch, shipment{slot: s, obj: obj, bytes: b, to: ni})
			r.route[s] = ni
			r.migrations++
			r.distInstr.moveApplied(tk.Load, p.index, ni)
		}
	}
	if len(p.shipScratch) == 0 {
		d.shipped = true
		p.diffMaybeFinishRound()
		return
	}
	p.runBurst(packCPU, func() {
		for _, s := range p.shipScratch {
			s := s
			dst := r.pes[s.to]
			r.netSend(p.core.ID, dst.core.ID, s.bytes+migrateHeader, func() {
				dst.enqueueSys(func() { dst.diffReceiveMigrant(s.slot, s.obj, s.bytes) })
			})
		}
		d.shipped = true
		p.diffMaybeFinishRound()
	})
}

func (p *pe) diffOnAnnounce(slot int, tasks []core.TransferTask) {
	p.diff.annQ[slot] = append(p.diff.annQ[slot], tasks)
	p.diffMaybeApply()
}

// diffMaybeApply hands the round's inbound announces to the planner once
// every neighbor's is queued — strictly after this PE's own Plan, so
// every planner in a round works from the same pre-transfer snapshot.
func (p *pe) diffMaybeApply() {
	d := &p.diff
	if !d.inRound || !d.planned || d.applied {
		return
	}
	nbr := p.rts.distNbr[p.index]
	for slot := range nbr {
		if len(d.annQ[slot]) == 0 {
			return
		}
	}
	d.taskScratch = d.taskScratch[:0]
	expect := 0
	for slot := range nbr {
		ts := d.annQ[slot][0]
		d.annQ[slot] = d.annQ[slot][1:]
		expect += len(ts)
		d.taskScratch = append(d.taskScratch, ts...)
	}
	d.applied = true
	d.expectObjs = expect
	if len(d.taskScratch) > 0 {
		d.planner.Receive(d.taskScratch)
		p.rts.distInstr.peakState(p.index, d.planner.StateBytes())
	}
	p.diffMaybeFinishRound()
}

// diffReceiveMigrant installs one inbound object (unpack burst), exactly
// like receiveMigrant but counting toward the round, not the flat step.
func (p *pe) diffReceiveMigrant(s int, obj Chare, bytes int) {
	p.runBurst(float64(bytes)*p.rts.cfg.PackCPUPerByte, func() {
		p.install(s, obj)
		// The migrant synced on its source PE; the uniform resume rule
		// (Resume goes exactly to synced chares) applies here too.
		p.markSynced(s)
		p.diff.gotObjs++
		p.diffMaybeFinishRound()
	})
}

// diffMaybeFinishRound folds this PE's termination sample with its tree
// children's and forwards the merge up; the root decides the next round
// or the finish.
func (p *pe) diffMaybeFinishRound() {
	d := &p.diff
	if !d.inRound || !d.planned || !d.applied || !d.shipped || d.sampleSent {
		return
	}
	if d.gotObjs < d.expectObjs {
		return
	}
	r := p.rts
	kids := r.treeChildren(p.index)
	for i := range kids {
		if len(d.termQ[i]) == 0 {
			return
		}
	}
	sample := d.planner.Sample()
	for i := range kids {
		sample.Merge(d.termQ[i][0])
		d.termQ[i] = d.termQ[i][1:]
	}
	d.sampleSent = true
	d.inRound = false
	if parent := r.treeParent(p.index); parent >= 0 {
		pp := r.pes[parent]
		slot := slotIn(r.treeChildren(parent), p.index)
		s := sample
		r.netSend(p.core.ID, pp.core.ID, diffTermBytes, func() {
			pp.enqueueSys(func() { pp.diffOnChildSample(slot, s) })
		})
		return
	}
	// Root: decide.
	r.distLB.rounds = d.round
	if r.dist.Converged(sample) || d.round >= r.dist.MaxRounds() {
		r.distFinish()
		return
	}
	p.diffCast(d.round+1, false)
}

func (p *pe) diffOnChildSample(slot int, s core.TermSample) {
	p.diff.termQ[slot] = append(p.diff.termQ[slot], s)
	p.diffMaybeFinishRound()
}

// distFinish closes the step at the root and starts the resume wave.
func (r *RTS) distFinish() {
	r.lb.active = false
	r.lbSteps++
	r.met.lbSteps.Inc()
	r.met.lbRounds.Add(uint64(r.distLB.rounds))
	r.distInstr.finish(r.distLB.rounds, r.pes[0].eng.Now()-r.lb.startAt)
	r.distInstr = nil
	r.pes[0].diffCast(r.distLB.rounds, true)
}

// commRow is one chare's bytes sent to every neighbor PE over the LB
// interval — the planner's communication-affinity input — indexed by the
// neighbor's position in the owning PE's list. The row belongs to the PE
// that accumulated it, in that PE's current interval (pe, epoch); any
// other PE, or a later interval, starts it afresh. The backing array is
// reused across intervals.
type commRow struct {
	bytes []float64
	pe    int
	epoch uint32
}

// commRow returns the live communication row this PE accumulated for the
// chare in slot s this interval, nil if it has none.
func (p *pe) commRow(s int) []float64 {
	if row := &p.rts.comm[s]; row.pe == p.index && row.epoch == p.diff.epoch {
		return row.bytes
	}
	return nil
}

// diffTrackComm accumulates one outgoing application message into the
// sender chare's per-neighbor communication row. Only inter-PE traffic to
// topology neighbors counts; everything else cannot influence a diffusion
// hand-off anyway.
func (p *pe) diffTrackComm(self, to, bytes int) {
	dst := p.rts.route[to]
	if dst == p.index {
		return
	}
	nbr := p.rts.distNbr[p.index]
	slot := slotIn(nbr, dst)
	if slot < 0 {
		return
	}
	row := &p.rts.comm[self]
	if row.pe != p.index || row.epoch != p.diff.epoch {
		if cap(row.bytes) < len(nbr) {
			row.bytes = make([]float64, len(nbr))
		} else {
			row.bytes = row.bytes[:len(nbr)]
			clear(row.bytes)
		}
		row.pe, row.epoch = p.index, p.diff.epoch
	}
	row.bytes[slot] += float64(bytes)
}

// diffReset clears the per-interval protocol state; beginInterval calls
// it on every resume.
func (p *pe) diffReset() {
	if p.rts.dist == nil {
		return
	}
	d := &p.diff
	d.planner = nil
	d.round, d.inRound = 0, false
	d.planned, d.applied, d.shipped, d.sampleSent = false, false, false, false
	d.expectObjs, d.gotObjs = 0, 0
	for i := range d.sumQ {
		d.sumQ[i] = d.sumQ[i][:0]
	}
	for i := range d.annQ {
		d.annQ[i] = d.annQ[i][:0]
	}
	for i := range d.termQ {
		d.termQ[i] = d.termQ[i][:0]
	}
	// Retire this interval's communication rows wholesale; each is zeroed
	// in place when its chare next sends.
	d.epoch++
}

// syncReport is the probe/evacuation entry into the sync protocol,
// dispatching on the configured mode (flat gather vs distributed).
func (p *pe) syncReport() {
	if p.inSync {
		return
	}
	if p.rts.dist != nil {
		p.distEnterSync()
		return
	}
	p.enterSync()
}
