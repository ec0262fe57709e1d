package charm

import (
	"fmt"

	"cloudlb/internal/core"
	"cloudlb/internal/sim"
)

// Hierarchical load balancing protocol (Config.HierarchicalLB): instead
// of every PE reporting straight to PE 0, statistics flow up the same
// k-ary spanning tree the reductions use, migration orders fan out down
// it as per-subtree bundles, and completion/resume travel the tree too.
// Message sizes grow with subtree size, so the root links carry the
// aggregate — the communication shape of Charm++'s hierarchical
// balancers, and the scalability direction the paper's group pursued in
// follow-up work.
//
// Per-PE protocol:
//
//  1. A PE activates when its local chares all sync, when a descendant's
//     report arrives, or when its parent probes it. On activation it
//     probes any child whose whole subtree is chare-less (such subtrees
//     cannot observe the sync point themselves).
//  2. A PE measures its own interval when its local chares have synced
//     (or immediately, if it has none) and forwards its report bundle —
//     own stats plus every descendant's — once all children reported.
//  3. The root plans, then sends each child a bundle of the orders and
//     inbound counts for that child's whole subtree; each PE peels off
//     its own order and forwards the rest.
//  4. Migration completions aggregate up the tree; the root's resume
//     broadcast travels down it.

type hierState struct {
	active      bool
	reports     []peStats
	childStats  map[int]bool
	ownMeasured bool
	forwarded   bool

	selfDone  bool
	childDone map[int]bool
	doneSent  bool
}

type hierOrder struct {
	pe     int
	order  []core.Move
	expect int
}

func (p *pe) hierReset() {
	cs, cd := p.hier.childStats, p.hier.childDone
	if cs == nil {
		cs = make(map[int]bool)
		cd = make(map[int]bool)
	} else {
		clear(cs)
		clear(cd)
	}
	p.hier = hierState{
		childStats: cs,
		childDone:  cd,
		reports:    p.hier.reports[:0],
	}
}

// subtreeChareTotal counts chares of every array hosted in the subtree
// rooted at this PE (memoized between LB steps alongside subtreeMemo).
func (p *pe) subtreeChareTotal() int {
	if p.subtreeTotalMemo >= 0 {
		return p.subtreeTotalMemo
	}
	n := len(p.roster)
	for _, c := range p.rts.treeChildren(p.index) {
		n += p.rts.pes[c].subtreeChareTotal()
	}
	p.subtreeTotalMemo = n
	return n
}

// hierOnLocalSynced runs when all local chares of this PE called AtSync.
func (p *pe) hierOnLocalSynced() {
	p.markInSync()
	p.hierActivate()
	if !p.hier.ownMeasured {
		p.hier.ownMeasured = true
		p.hier.reports = append(p.hier.reports, p.measureStats())
	}
	p.hierMaybeForward()
}

// hierActivate marks the sync epoch visible on this PE and probes
// chare-less child subtrees, which cannot discover it on their own.
func (p *pe) hierActivate() {
	if p.hier.active {
		return
	}
	p.hier.active = true
	for _, ci := range p.rts.treeChildren(p.index) {
		child := p.rts.pes[ci]
		if child.subtreeChareTotal() == 0 {
			p.rts.netSend(p.core.ID, child.core.ID, probeBytes, func() {
				child.enqueueSys(child.hierOnProbe)
			})
		}
	}
}

// hierOnProbe runs on a PE whose whole subtree is chare-less.
func (p *pe) hierOnProbe() {
	if p.inSync {
		return
	}
	p.markInSync()
	p.hierActivate()
	p.hier.ownMeasured = true
	p.hier.reports = append(p.hier.reports, p.measureStats())
	p.hierMaybeForward()
}

// hierOnChildStats folds a child subtree's report bundle in.
func (p *pe) hierOnChildStats(child int, reports []peStats) {
	if p.hier.childStats[child] {
		panic(fmt.Sprintf("charm: duplicate hierarchical stats from PE %d", child))
	}
	p.hier.childStats[child] = true
	p.hier.reports = append(p.hier.reports, reports...)
	p.hierActivate()
	// A PE without local chares measures itself once it learns the sync
	// epoch exists; one with chares waits for its local sync.
	if !p.hier.ownMeasured && len(p.roster) == 0 {
		if !p.inSync {
			p.markInSync()
		}
		p.hier.ownMeasured = true
		p.hier.reports = append(p.hier.reports, p.measureStats())
	}
	p.hierMaybeForward()
}

func (p *pe) hierChildrenReady() bool {
	for _, ci := range p.rts.treeChildren(p.index) {
		if !p.hier.childStats[ci] {
			return false
		}
	}
	return true
}

// hierMaybeForward ships the subtree bundle up once complete.
func (p *pe) hierMaybeForward() {
	if p.hier.forwarded || !p.hier.ownMeasured || !p.hierChildrenReady() {
		return
	}
	p.hier.forwarded = true
	parent := p.rts.treeParent(p.index)
	if parent < 0 {
		p.rts.hierPlan(p.hier.reports)
		return
	}
	reports := p.hier.reports
	tasks := 0
	for _, st := range reports {
		tasks += len(st.tasks)
	}
	bytes := statsMsgBase + p.rts.cfg.StatsBytesPerTask*tasks + 16*len(reports)
	pp := p.rts.pes[parent]
	p.rts.netSend(p.core.ID, pp.core.ID, bytes, func() {
		pp.enqueueSys(func() { pp.hierOnChildStats(p.index, reports) })
	})
}

// hierPlan runs at the root once every PE's report arrived.
func (r *RTS) hierPlan(reports []peStats) {
	if len(reports) != len(r.pes) {
		panic(fmt.Sprintf("charm: hierarchical gather produced %d reports for %d PEs", len(reports), len(r.pes)))
	}
	var stats core.Stats
	var earliest sim.Time = sim.Never
	for _, st := range reports {
		stats.Tasks = append(stats.Tasks, st.tasks...)
		stats.Cores = append(stats.Cores, core.CoreSample{PE: st.pe, Background: st.bg, Speed: st.speed})
	}
	for _, p := range r.pes {
		if p.intervalAt < earliest {
			earliest = p.intervalAt
		}
	}
	outs, ins, _ := r.planMoves(&stats, r.pes[0].eng.Now()-earliest)

	root := r.pes[0]
	orders := make([]hierOrder, 0, len(r.pes))
	for _, p := range r.pes {
		orders = append(orders, hierOrder{pe: p.index, order: outs[p.index], expect: ins[p.index]})
	}
	root.hierApplyOrders(orders)
}

// hierApplyOrders takes this PE's own order and forwards per-subtree
// bundles to the children.
func (p *pe) hierApplyOrders(orders []hierOrder) {
	var own *hierOrder
	perChild := map[int][]hierOrder{}
	for i := range orders {
		o := orders[i]
		if o.pe == p.index {
			own = &orders[i]
			continue
		}
		c := p.rts.treeChildFor(p.index, o.pe)
		perChild[c] = append(perChild[c], o)
	}
	// Deterministic child order: map iteration would reorder NIC
	// transmissions and perturb timing between runs.
	for _, ci := range p.rts.treeChildren(p.index) {
		bundle := perChild[ci]
		if len(bundle) == 0 {
			continue
		}
		child := p.rts.pes[ci]
		moves := 0
		for _, o := range bundle {
			moves += len(o.order)
		}
		bytes := orderMsgBase + perMoveBytes*moves + 16*len(bundle)
		p.rts.netSend(p.core.ID, child.core.ID, bytes, func() {
			child.enqueueSys(func() { child.hierApplyOrders(bundle) })
		})
	}
	if own == nil {
		panic(fmt.Sprintf("charm: PE %d received a bundle without its own order", p.index))
	}
	p.onOrder(own.order, own.expect)
}

// treeChildFor returns which child of `from` roots the subtree holding
// `target`.
func (r *RTS) treeChildFor(from, target int) int {
	for cur := target; ; {
		parent := r.treeParent(cur)
		if parent == from {
			return cur
		}
		if parent < 0 {
			panic(fmt.Sprintf("charm: PE %d not in subtree of %d", target, from))
		}
		cur = parent
	}
}

// hierMaybeSyncDone aggregates migration completion up the tree.
func (p *pe) hierMaybeSyncDone() {
	if p.hier.doneSent || !p.hier.selfDone {
		return
	}
	for _, ci := range p.rts.treeChildren(p.index) {
		if !p.hier.childDone[ci] {
			return
		}
	}
	p.hier.doneSent = true
	parent := p.rts.treeParent(p.index)
	if parent < 0 {
		// Root: everyone is done; resume travels down the tree.
		p.rts.lbSteps++
		p.rts.met.lbSteps.Inc()
		p.hierResume()
		return
	}
	pp := p.rts.pes[parent]
	p.rts.netSend(p.core.ID, pp.core.ID, syncDoneBytes, func() {
		pp.enqueueSys(func() {
			pp.hier.childDone[p.index] = true
			pp.hierMaybeSyncDone()
		})
	})
}

// hierResume forwards the resume wave to the children, then resumes this
// PE (onResume resets the hierarchical state, so forwarding goes first).
func (p *pe) hierResume() {
	for _, ci := range p.rts.treeChildren(p.index) {
		child := p.rts.pes[ci]
		p.rts.netSend(p.core.ID, child.core.ID, resumeMsgBase, func() {
			child.enqueueSys(child.hierResume)
		})
	}
	p.onResume()
}
