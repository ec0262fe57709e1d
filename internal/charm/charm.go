// Package charm is a message-driven migratable-object runtime in the style
// of Charm++, running on the simulated cluster of internal/machine.
//
// Applications over-decompose into chares: objects with state and a Recv
// entry method. The runtime maps chares onto processing elements (PEs) —
// one worker thread pinned to each core the runtime owns — and schedules
// one entry method at a time per PE. Entry methods report the CPU they
// consume; the PE's thread then contends for the core against whatever
// else the machine runs there (interfering jobs included), so the wall
// time of an entry silently includes stolen CPU, exactly as the paper's
// Projections measurements do.
//
// Chares periodically call AtSync; when every chare has synced, the
// runtime gathers the per-task wall times and the per-core background
// loads (Eq. 2: O_p = T_lb − Σt_i − t_idle, with t_idle read from the
// simulated /proc/stat) to PE 0, runs the configured strategy, migrates
// objects over the interconnect, and resumes. Migration and LB messaging
// costs land in application wall-clock time.
package charm

import (
	"fmt"
	"slices"

	"cloudlb/internal/core"
	"cloudlb/internal/machine"
	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
	"cloudlb/internal/xnet"
)

// ChareID identifies a chare; it doubles as the load balancer's TaskID.
type ChareID = core.TaskID

// Chare is a migratable object. Implementations hold application state.
type Chare interface {
	// Recv handles one message and returns the CPU-seconds the entry
	// method consumes. The runtime runs application logic eagerly but
	// charges the returned cost to the PE's thread before any message
	// sent from this entry leaves the PE.
	Recv(ctx *Ctx, data interface{}) float64
	// PackSize returns the object's serialized size in bytes, charged
	// when the load balancer migrates it.
	PackSize() int
}

// Built-in messages the runtime delivers to chares.
type (
	// Start is delivered to every chare when the runtime starts.
	Start struct{}
	// Resume is delivered to every chare after a load balancing step.
	Resume struct{}
	// ReductionResult delivers a completed reduction to every chare of
	// the contributing array.
	ReductionResult struct {
		Tag   string
		Value float64
	}
)

// Placement selects the initial chare-to-PE mapping.
type Placement int

// Placement policies.
const (
	// PlaceBlock assigns contiguous index ranges to PEs (the default;
	// preserves neighbor locality for stencils).
	PlaceBlock Placement = iota
	// PlaceRoundRobin deals indices out cyclically.
	PlaceRoundRobin
	// PlaceHash scatters indices by a multiplicative hash, decorrelating
	// placement from any spatial structure of the index space (useful
	// for irregular work whose heavy elements are spatially clustered).
	PlaceHash
)

// hashPlace maps a chare index to a PE pseudo-randomly but evenly: the
// index is hashed for ordering, and ranks are dealt round-robin so PE
// populations differ by at most one.
func hashPlace(n, p int) []int {
	type hi struct {
		h uint32
		i int
	}
	hs := make([]hi, n)
	for i := 0; i < n; i++ {
		x := uint32(i+1) * 2654435761
		x ^= x >> 16
		x *= 2246822519
		x ^= x >> 13
		hs[i] = hi{x, i}
	}
	slices.SortFunc(hs, func(a, b hi) int {
		if a.h != b.h {
			if a.h < b.h {
				return -1
			}
			return 1
		}
		return a.i - b.i
	})
	out := make([]int, n)
	for rank, e := range hs {
		out[e.i] = rank % p
	}
	return out
}

// Config configures a runtime instance. Multiple instances can share one
// machine (the paper's background job is simply a second instance pinned
// to two cores).
type Config struct {
	Machine *machine.Machine
	Net     *xnet.Network
	// Cores lists the global core IDs this runtime owns; PE i runs on
	// Cores[i].
	Cores []int
	// Strategy plans migrations at LB steps; nil means no load balancing
	// (AtSync still synchronizes, so noLB and LB runs see identical
	// barrier structure, as in the paper's methodology).
	Strategy core.Strategy
	// Placement is the initial mapping policy.
	Placement Placement
	// Trace, when non-nil, records per-core timeline segments.
	Trace *trace.Recorder
	// TraceAsBackground records this runtime's entries as background
	// segments — used for interfering jobs so timelines match the
	// paper's figures.
	TraceAsBackground bool
	// ThreadWeight is the OS scheduling weight of PE worker threads
	// (default 1).
	ThreadWeight float64
	// MsgOverheadCPU is the scheduler's per-entry CPU overhead in
	// seconds (default 2e-6).
	MsgOverheadCPU float64
	// PackCPUPerByte is the CPU cost to serialize or deserialize one
	// byte of a migrating object (default 2e-10, ~5 GB/s memcpy).
	PackCPUPerByte float64
	// StatsBytesPerTask sizes the LB stats message (default 24 bytes per
	// task record).
	StatsBytesPerTask int
	// ReductionArity is the fan-in of the reduction spanning tree
	// (default 4).
	ReductionArity int
	// HierarchicalLB routes load balancing statistics, orders and
	// completion up and down the reduction tree instead of a flat
	// gather at PE 0 — the communication shape of Charm++'s
	// hierarchical balancers.
	HierarchicalLB bool
	// FaultDetectionDelay is how long a hard-killed core's disappearance
	// goes unnoticed before the runtime evacuates its chares (default
	// 50 ms, a typical heartbeat timeout). Irrelevant for revocations
	// with advance warning, which evacuate eagerly.
	FaultDetectionDelay float64
	// Name tags this runtime instance in traces and metric labels.
	Name string
	// Metrics, when non-nil, receives this runtime's telemetry series
	// (messages, AtSync barriers, LB steps, per-PE Eq. 2 measurements),
	// labeled rts=Name. Nil disables instrumentation at zero cost.
	Metrics *metrics.Registry
	// LBTimeline, when non-nil, accumulates one row per LB step (moves
	// planned/applied, strategy wall time, per-PE loads before/after).
	LBTimeline *metrics.LBTimeline
	// Obs, when non-nil, is the job trace this runtime records LB-step
	// spans on (host wall time around Strategy.Plan, row ObsTID). Nil
	// disables tracing at zero cost.
	Obs *obs.Trace
	// ObsTID is the trace row (Chrome thread ID) for this runtime's spans.
	ObsTID int
}

// RTS is a runtime instance.
type RTS struct {
	cfg Config
	// sh is the scheduler driving the machine. Every PE's events run on
	// its core's shard engine, and the runtime splits its hot-path mutable
	// state (message pools, in-flight counters, Done marks) per shard so
	// parallel windows never contend; the AtSync/LB protocol and quiescence
	// detection raise sequential demand, so their cross-shard handlers only
	// ever run merged on the coordinator.
	sh   *sim.Shards
	pes  []*pe
	name string

	// Dense chare slots. Every chare owns one slot, assigned in NewArray
	// as its array's base offset plus Index; ChareID stays the public
	// identity, resolved to a slot once per send (slotOf) and carried as
	// the slot from there on. arrays lists the chare arrays in creation
	// order (a handful per runtime, so resolution is a linear scan) and
	// ids maps each slot back to its ChareID.
	arrays []arrayMeta
	ids    []ChareID
	// route is the PE every slot's messages are sent to. Migrations only
	// happen while the whole runtime is quiesced inside an LB step, so a
	// single table read at send time is equivalent to the per-PE tables
	// of a real distributed location manager; the cost of propagating
	// updates is still paid by the resume broadcast. The route changes at
	// plan time, before the object moves: it is read-mostly, and kept
	// apart from the hot-written slots so no shard false-shares it.
	route []int
	// slots is the per-slot residence and load state (see chareSlot),
	// written only by the shard of the PE hosting the chare.
	slots []chareSlot
	// comm holds the DiffusionLB planner's per-slot communication rows
	// (nil unless the strategy plans distributedly).
	comm []commRow

	started bool
	total   int // total chares
	done    int
	// Done chares (chareSlot.done) no longer take part in AtSync
	// accounting (they will never sync again) but remain migratable
	// objects; the mark lives in the slot, so it survives migration and
	// evacuation.
	finished bool
	finishAt sim.Time
	onDone   func()

	lb lbState

	// Distributed LB wiring: dist is the DistributedStrategy view of
	// cfg.Strategy (nil when the strategy plans centrally), distNbr caches
	// every PE's topology neighbor list, distLB is PE 0's readiness state
	// and distInstr the in-flight step's telemetry.
	dist      core.DistributedStrategy
	distNbr   [][]int
	distLB    distMasterState
	distInstr *distStepInstr

	// Quiescence detection state. netInflight counts in-flight runtime
	// messages in one slot per shard: the
	// send side increments the source shard's slot and the delivery side
	// decrements the destination's, so each slot is only ever touched by
	// code executing on its own shard and a slot can go transiently
	// negative — only the sum is meaningful, and it is only read in
	// sequential context (StartQD pins the run merged until its waiters
	// fire).
	netInflight []inflightCount
	qdWaiters   []func()

	// Counters exposed for experiments.
	lbSteps    int
	migrations int
	lbWall     sim.Time

	// Elasticity state: revocations/restores deferred past an in-flight
	// LB step, and the emergency-evacuation counter.
	pendingElastic []func()
	evacuations    int

	// msgFree recycles application message envelopes (see appMsg), one
	// pool per shard: each envelope carries
	// its delivery closure with it, so the steady-state send path schedules
	// network and engine events without allocating. Envelopes are taken
	// from the sending shard's pool and released into the delivering
	// shard's, keeping every pool single-writer within a window.
	msgFree []msgPool

	// shardDone is the per-shard Done accounting of a Concurrent
	// scheduler: chares count their Done calls shard-locally mid-window,
	// and the coordinator's barrier hook folds the counts into done,
	// firing onDone with the exact virtual finish time.
	shardDone []shardDoneState

	// outsScratch/insScratch are the per-PE migration-order buffers
	// planMoves fills each LB step, reused across steps.
	outsScratch [][]core.Move
	insScratch  []int

	// childrenMemo caches the reduction tree's child lists per PE (the
	// tree shape is fixed at construction).
	childrenMemo [][]int

	// met holds the telemetry handles; its zero value is all no-ops, so
	// hot paths update it unconditionally (see rtsMetrics).
	met rtsMetrics
}

// arrayMeta is one chare array: its elements own the dense slots
// [base, base+size).
type arrayMeta struct {
	name string
	base int
	size int
}

// chareSlot is one chare's runtime state, indexed by its dense slot.
// Residence (home, obj) changes on install and uninstall; the route
// (RTS.route) changes at plan time. The two differ while a migrant is
// packed or in flight, when home is -1 and obj still holds the object.
type chareSlot struct {
	obj  Chare
	wall float64 // entry wall time this LB interval (load database)
	home int32   // resident PE, -1 while packed or in flight
	done bool    // the chare called Done
}

// inflightCount is one shard's in-flight message counter. The pad keeps
// adjacent shards' slots off each other's cache lines: both the send and
// the delivery path touch a slot for every application message.
type inflightCount struct {
	n int
	_ [56]byte
}

// msgPool is one shard's free list of message envelopes, padded like
// inflightCount — newAppMsg and deliver hit it once per message.
type msgPool struct {
	free []*appMsg
	_    [40]byte
}

// shardDoneState holds one shard's not-yet-consolidated Done calls.
type shardDoneState struct {
	count  int
	lastAt sim.Time
}

// NewRTS validates the configuration and builds the PEs.
func NewRTS(cfg Config) *RTS {
	if cfg.Machine == nil || cfg.Net == nil {
		panic("charm: Machine and Net are required")
	}
	if len(cfg.Cores) == 0 {
		panic("charm: at least one core required")
	}
	if cfg.ThreadWeight <= 0 {
		cfg.ThreadWeight = 1
	}
	if cfg.MsgOverheadCPU == 0 {
		cfg.MsgOverheadCPU = 2e-6
	}
	if cfg.PackCPUPerByte == 0 {
		cfg.PackCPUPerByte = 2e-10
	}
	if cfg.StatsBytesPerTask == 0 {
		cfg.StatsBytesPerTask = 24
	}
	if cfg.FaultDetectionDelay == 0 {
		cfg.FaultDetectionDelay = 0.05
	}
	if cfg.Name == "" {
		cfg.Name = "rts"
	}
	r := &RTS{
		cfg:  cfg,
		sh:   cfg.Machine.Shards(),
		name: cfg.Name,
	}
	for i, c := range cfg.Cores {
		r.pes = append(r.pes, newPE(r, i, cfg.Machine.Core(c)))
	}
	shards := r.sh.NumShards()
	r.msgFree = make([]msgPool, shards)
	r.netInflight = make([]inflightCount, shards)
	r.shardDone = make([]shardDoneState, shards)
	r.sh.OnBarrier(r.consolidate)
	r.outsScratch = make([][]core.Move, len(r.pes))
	r.insScratch = make([]int, len(r.pes))
	r.childrenMemo = make([][]int, len(r.pes))
	if ds, ok := cfg.Strategy.(core.DistributedStrategy); ok {
		if cfg.HierarchicalLB {
			panic("charm: a DistributedStrategy plans in place of the gather; HierarchicalLB does not apply")
		}
		r.dist = ds
		r.distNbr = make([][]int, len(r.pes))
		for i := range r.pes {
			nbr := ds.Neighbors(i, len(r.pes))
			for _, q := range nbr {
				if q < 0 || q >= len(r.pes) || q == i {
					panic(fmt.Sprintf("charm: strategy lists invalid neighbor %d for PE %d", q, i))
				}
			}
			r.distNbr[i] = nbr
		}
	}
	r.met = newRTSMetrics(cfg.Metrics, cfg.LBTimeline, cfg.Name, len(r.pes))
	return r
}

// NumPEs returns how many PEs (cores) the runtime owns.
func (r *RTS) NumPEs() int { return len(r.pes) }

// CoreOf maps a PE index to its global core ID.
func (r *RTS) CoreOf(peIdx int) int { return r.pes[peIdx].core.ID }

// NewArray creates a chare array and places its elements. It must be
// called before Start.
func (r *RTS) NewArray(name string, n int, factory func(idx int) Chare) {
	if r.started {
		panic("charm: NewArray after Start")
	}
	if r.array(name) != nil {
		panic(fmt.Sprintf("charm: duplicate array %q", name))
	}
	if n <= 0 {
		panic("charm: array size must be positive")
	}
	base := len(r.ids)
	r.arrays = append(r.arrays, arrayMeta{name: name, base: base, size: n})
	for i := 0; i < n; i++ {
		r.ids = append(r.ids, ChareID{Array: name, Index: i})
		r.slots = append(r.slots, chareSlot{home: -1})
	}
	r.route = slices.Grow(r.route, n)[:base+n]
	if r.dist != nil {
		r.comm = append(r.comm, make([]commRow, n)...)
	}
	p := len(r.pes)
	var hashed []int
	if r.cfg.Placement == PlaceHash {
		hashed = hashPlace(n, p)
	}
	for i := 0; i < n; i++ {
		var peIdx int
		switch r.cfg.Placement {
		case PlaceRoundRobin:
			peIdx = i % p
		case PlaceHash:
			peIdx = hashed[i]
		default:
			peIdx = i * p / n
		}
		r.route[base+i] = peIdx
		r.pes[peIdx].install(base+i, factory(i))
	}
	r.total += n
}

// array returns the named array's metadata, nil if there is none.
func (r *RTS) array(name string) *arrayMeta {
	for i := range r.arrays {
		if r.arrays[i].name == name {
			return &r.arrays[i]
		}
	}
	return nil
}

// slotOf resolves a chare ID to its dense slot; ok is false for an
// unknown array or an index outside it.
func (r *RTS) slotOf(id ChareID) (slot int, ok bool) {
	a := r.array(id.Array)
	if a == nil || uint(id.Index) >= uint(a.size) {
		return 0, false
	}
	return a.base + id.Index, true
}

// ArraySize returns the number of elements in an array.
func (r *RTS) ArraySize(name string) int {
	a := r.array(name)
	if a == nil {
		panic(fmt.Sprintf("charm: unknown array %q", name))
	}
	return a.size
}

// Start delivers the built-in Start message to every chare at the current
// virtual time. The caller then runs the simulation engine.
func (r *RTS) Start() {
	if r.started {
		panic("charm: already started")
	}
	r.started = true
	r.primeMemos()
	for _, p := range r.pes {
		p.beginInterval()
		for _, s := range p.roster {
			p.enqueueApp(s, Start{})
		}
		p.pump()
	}
}

// primeMemos eagerly computes every reduction-tree memo — child lists,
// per-array subtree element counts, subtree chare totals — so the
// parallel-window paths (reduction folds, hierarchical activation) only
// ever read them; a lazy fill from a shard worker would race with sibling
// shards recursing through the same entries. Called from coordinator
// context whenever placements may have changed and parallel windows are
// about to resume: at Start and when the last sequential-demand holder
// (LB resume, quiescence waiter) releases.
func (r *RTS) primeMemos() {
	for _, p := range r.pes {
		r.treeChildren(p.index)
		for _, a := range r.arrays {
			p.subtreeExpected(a.name)
		}
		p.subtreeChareTotal()
	}
}

// consolidate runs on the shard coordinator at every window barrier,
// folding each shard's Done calls into the global count. The finish time
// is exact despite the deferred bookkeeping: Done timestamps only grow
// within and across barriers, so the maximum over the final batch is the
// virtual time of the very last Done call — the same instant a single
// shard records synchronously.
func (r *RTS) consolidate() {
	var last sim.Time
	pending := false
	for i := range r.shardDone {
		sd := &r.shardDone[i]
		if sd.count == 0 {
			continue
		}
		pending = true
		r.done += sd.count
		sd.count = 0
		if sd.lastAt > last {
			last = sd.lastAt
		}
	}
	if pending && r.done >= r.total && !r.finished {
		r.finished = true
		r.finishAt = last
		if r.onDone != nil {
			r.onDone()
		}
	}
}

// Location reports the PE a chare's messages are routed to: its host, or
// its destination from the moment an LB step plans its move.
func (r *RTS) Location(id ChareID) int {
	s, ok := r.slotOf(id)
	if !ok {
		panic(fmt.Sprintf("charm: unknown chare %v", id))
	}
	return r.route[s]
}

// Chare returns the live object for a chare ID (for tests and probes),
// also while it is packed or in flight between PEs.
func (r *RTS) Chare(id ChareID) Chare {
	s, ok := r.slotOf(id)
	if !ok {
		panic(fmt.Sprintf("charm: unknown chare %v", id))
	}
	return r.slots[s].obj
}

// Finished reports whether every chare has called Done.
func (r *RTS) Finished() bool { return r.finished }

// FinishTime returns the virtual time at which the last chare called Done.
// It panics if the run has not finished.
func (r *RTS) FinishTime() sim.Time {
	if !r.finished {
		panic("charm: run not finished")
	}
	return r.finishAt
}

// SetOnAllDone registers a callback fired when the last chare calls Done.
func (r *RTS) SetOnAllDone(fn func()) { r.onDone = fn }

// LBSteps reports how many load balancing steps have completed.
func (r *RTS) LBSteps() int { return r.lbSteps }

// Migrations reports the total number of objects migrated.
func (r *RTS) Migrations() int { return r.migrations }

// LBWallTime reports the cumulative wall time all PEs spent synchronized
// inside LB steps (sync entry to resume), averaged over PEs.
func (r *RTS) LBWallTime() sim.Time {
	return r.lbWall / sim.Time(len(r.pes))
}

// chareDone records a Done call by the chare in slot s, which the calling
// PE hosts. The first call sets the slot's done bit and takes the chare out
// of the PE's active count — not its synced count: a chare only runs while
// it is not synced here, and afterEntry applies Done before AtSync. Only
// the hosting shard writes either. With a Concurrent scheduler the call
// itself is counted shard-locally for the barrier hook to consolidate
// (writing the global count from a window would race other shards); a
// single shard counts it where it happens.
func (r *RTS) chareDone(p *pe, s int) {
	if sl := &r.slots[s]; !sl.done {
		sl.done = true
		p.active--
	}
	if r.sh.Concurrent() {
		sd := &r.shardDone[p.shard]
		sd.count++
		sd.lastAt = p.eng.Now()
		return
	}
	r.done++
	if r.done == r.total && !r.finished {
		r.finished = true
		r.finishAt = p.eng.Now()
		if r.onDone != nil {
			r.onDone()
		}
	}
}

// appMsg is a pooled application message envelope. Each envelope owns a
// delivery closure bound once at creation (fn), so the per-message send
// path — the hottest path in the runtime — schedules its network hop and
// engine event with zero allocations: the envelope comes off the RTS free
// list, mirroring the engine's event free list one layer down. The
// destination travels as its resolved slot.
type appMsg struct {
	rts   *RTS
	to    int
	data  interface{}
	bytes int
	dstPE int
	fn    func()
}

func (r *RTS) newAppMsg(shard int) *appMsg {
	pool := &r.msgFree[shard].free
	if n := len(*pool); n > 0 {
		m := (*pool)[n-1]
		(*pool)[n-1] = nil
		*pool = (*pool)[:n-1]
		r.met.msgsPooled.Inc()
		return m
	}
	m := &appMsg{rts: r}
	m.fn = m.deliver
	return m
}

// deliver fires at the message's network arrival instant, in the
// destination shard's execution context. The envelope is released (into
// that shard's pool) before the payload is processed, so deliveries that
// trigger further sends (pump running an entry) can immediately reuse it.
func (m *appMsg) deliver() {
	r := m.rts
	to, data, bytes, dstPE := m.to, m.data, m.bytes, m.dstPE
	dst := r.pes[dstPE]
	r.netInflight[dst.shard].n--
	m.data = nil
	pool := &r.msgFree[dst.shard].free
	*pool = append(*pool, m)
	// Re-check the route at delivery: the chare may have migrated
	// while the message was in flight (only possible for messages
	// crossing an LB step); forward if so, as Charm++ does.
	if r.route[to] != dstPE {
		r.send(dstPE, to, data, bytes)
		return
	}
	dst.enqueueApp(to, data)
	dst.pump()
}

// mustSlot resolves a send destination, panicking on an unknown chare.
func (r *RTS) mustSlot(to ChareID) int {
	s, ok := r.slotOf(to)
	if !ok {
		panic(fmt.Sprintf("charm: send to unknown chare %v", to))
	}
	return s
}

// send routes a message to the chare in slot to, via the interconnect
// when the destination lives on another PE, or via the intra-node path for
// local delivery (a real RTS enqueues locally; the intra-node latency
// stands in for that queueing cost). It runs in the sending PE's shard
// context and touches only that shard's pool and in-flight slot.
func (r *RTS) send(fromPE, to int, data interface{}, bytes int) {
	dstPE := r.route[to]
	src := r.pes[fromPE]
	m := r.newAppMsg(src.shard)
	m.to, m.data, m.bytes, m.dstPE = to, data, bytes, dstPE
	r.met.msgsSent.Inc()
	// In-flight accounting as in netSend, folded into the envelope so
	// quiescence detection still sees every application message.
	r.netInflight[src.shard].n++
	r.cfg.Net.Send(src.core.ID, r.pes[dstPE].core.ID, bytes, m.fn)
}
