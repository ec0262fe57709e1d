package sim

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
)

// Shards runs one Engine per shard and synchronizes them in conservative
// time windows, in the classic CMB/LBTS style of parallel discrete-event
// simulation.
//
// The contract with the model layers is:
//
//   - Every event scheduled on a shard's engine concerns only state owned
//     by that shard (a group of machine nodes and everything pinned to
//     their cores).
//   - The only cross-shard influence is an explicit Cross(src, dst, at, fn)
//     call, and its timestamp always lies at least Lookahead beyond the
//     sending shard's current time (xnet charges every inter-node message
//     a fixed latency, which is exactly this lookahead).
//
// Under that contract every shard may freely execute all events up to
// edge = min(nextEvent) + Lookahead: no message produced inside the window
// can land inside it. Cross-shard sends buffer in per-(src,dst) mailboxes
// while a window runs and are drained into the destination heaps at the
// barrier, sorted by (timestamp, source shard, send order) so the
// destination sequence numbers — and therefore the simulation — never
// depend on goroutine scheduling.
//
// Two coordinator-side execution modes complement the parallel windows:
//
//   - Global events (GlobalAt) run on the coordinator with every shard
//     parked at exactly the event's timestamp. The scenario layer uses them
//     for actors that touch cores on many shards at once: power-meter
//     samples, cloud churn arrivals, background-job starts.
//   - Merged-sequential mode (RequireSequential/ForceSequential) makes the
//     coordinator pop events one at a time in global (timestamp, shard,
//     sequence) order with all shard clocks advanced in lock step. The
//     charm runtime raises sequential demand around AtSync/LB steps and
//     quiescence detection, whose master-side handlers read state on every
//     shard; it drops the demand when the last PE resumes, and the
//     coordinator returns to parallel windows from that exact point.
//
// Shards is the only scheduler the model layers see. With a single shard
// it is the plain discrete-event engine by construction: GlobalAt
// schedules on that engine (globals and engine events at one timestamp
// fire in scheduling order), RunUntil is Engine.RunUntil followed by the
// barrier hooks, Now reads the engine clock, and there are no windows,
// mailboxes or merged stepping — merged order is heap order. Concurrent
// is the one predicate the model layers consult for behaviour that only
// multiple shards need.
type Shards struct {
	engines   []*Engine
	lookahead Time
	now       Time // common clock at barriers / merged-mode frontier
	limit     uint64

	mail          [][]mailbox // [src][dst], written by src during windows
	injectScratch []crossEntry

	globals    globalHeap
	gseq       uint64
	globalExec uint64

	// seqDemand counts outstanding reasons to run merged-sequentially. It
	// is incremented from shard workers (a PE entering AtSync mid-window)
	// and read by the coordinator at barriers, hence atomic.
	seqDemand atomic.Int64
	forced    bool

	// parallel is true only while shard workers are executing a window. It
	// is written by the coordinator outside windows and read by model code
	// inside them (ordered by the dispatch/join channels), so Cross can
	// tell mailbox context from coordinator context without atomics.
	parallel bool

	hooks []func()

	started  bool
	closed   bool
	cmd      []chan Time
	done     chan workerDone
	inWindow []bool

	err error

	// Telemetry (nil-safe handles; see SetMetrics).
	metEvents    *metrics.Counter
	metHeapDepth *metrics.Gauge
	shardEvents  []*metrics.Counter
	shardWindows []*metrics.Counter
	shardWait    []*metrics.FloatCounter
	lastExec     []uint64
	finishedAt   []time.Time
	timed        bool

	// Job tracing (nil-safe; see SetObs).
	obs    *obs.Trace
	obsTID int
}

type crossEntry struct {
	at  Time
	src int
	fn  func()
}

// mailbox buffers one ordered (src,dst) stream. The pad keeps mailboxes of
// different source shards off each other's cache lines: each row of mail is
// written by exactly one worker during a window.
type mailbox struct {
	entries []crossEntry
	_       [40]byte
}

type workerDone struct {
	shard int
	err   error
	at    time.Time
}

type globalEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// globalHeap is a small binary min-heap of coordinator events ordered by
// (at, seq). Global events are rare (one per meter sample or churn step),
// so it favors simplicity over the engine heap's tuning.
type globalHeap []globalEvent

func (h globalHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *globalHeap) push(ev globalEvent) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *globalHeap) pop() globalEvent {
	s := *h
	min := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = globalEvent{}
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.less(c+1, c) {
			c++
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return min
}

func (h globalHeap) min() (Time, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// NewShards creates n engines synchronized with the given lookahead: the
// minimum virtual-time distance every Cross timestamp keeps ahead of its
// sender. With n > 1 the lookahead must be positive — a zero-lookahead
// model cannot make conservative progress. A single shard never opens a
// window, so its lookahead is unused and may be zero.
func NewShards(n int, lookahead Time) *Shards {
	if n < 1 {
		panic(fmt.Sprintf("sim: shard count %d < 1", n))
	}
	if n > 1 && lookahead <= 0 {
		panic(fmt.Sprintf("sim: lookahead %v must be positive", lookahead))
	}
	s := &Shards{
		engines:   make([]*Engine, n),
		lookahead: lookahead,
		mail:      make([][]mailbox, n),
		inWindow:  make([]bool, n),
		lastExec:  make([]uint64, n),
	}
	for i := range s.engines {
		s.engines[i] = NewEngine()
		s.mail[i] = make([]mailbox, n)
	}
	return s
}

// NumShards reports the number of shards.
func (s *Shards) NumShards() int { return len(s.engines) }

// Concurrent reports whether more than one shard exists, i.e. whether
// model events may run on several goroutines inside a window and finish
// instants may be observed only at a later barrier. It is the single
// predicate that selects the multi-shard-only model behaviours (deferred
// Done accounting in charm, busy logs in the power meter); with one shard
// everything happens, and is observed, at its own instant.
func (s *Shards) Concurrent() bool { return len(s.engines) > 1 }

// Engine returns shard i's engine.
func (s *Shards) Engine(i int) *Engine { return s.engines[i] }

// Lookahead reports the conservative window bound.
func (s *Shards) Lookahead() Time { return s.lookahead }

// Now reports the coordinator clock: the common shard time at barriers and
// the merged-mode frontier while sequential — or, with one shard, the
// engine clock, also inside its events. Coordinator context only.
func (s *Shards) Now() Time {
	if !s.Concurrent() {
		return s.engines[0].Now()
	}
	return s.now
}

// Executed reports the total number of fired events across all shards,
// including coordinator global events.
func (s *Shards) Executed() uint64 {
	total := s.globalExec
	for _, e := range s.engines {
		total += e.Executed()
	}
	return total
}

// SetEventLimit bounds the total fired events as Engine.SetEventLimit does.
func (s *Shards) SetEventLimit(n uint64) {
	s.limit = n
	for _, e := range s.engines {
		e.SetEventLimit(n)
	}
}

// SetMetrics registers the engine-level series on reg, plus per-shard
// counters (events, windows, barrier wait) when Concurrent. Passing nil is
// a no-op.
func (s *Shards) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.metEvents = reg.Counter("sim_events_total", "Events dispatched by the simulation engine.")
	s.metHeapDepth = reg.Gauge("sim_event_heap_depth_max", "High-water mark of the pending-event heap.")
	for _, e := range s.engines {
		e.SetMetrics(s.metEvents, s.metHeapDepth)
	}
	if !s.Concurrent() {
		return
	}
	s.shardEvents = make([]*metrics.Counter, len(s.engines))
	s.shardWindows = make([]*metrics.Counter, len(s.engines))
	s.shardWait = make([]*metrics.FloatCounter, len(s.engines))
	s.finishedAt = make([]time.Time, len(s.engines))
	s.timed = true
	for i := range s.engines {
		lbl := metrics.L("shard", fmt.Sprintf("%d", i))
		s.shardEvents[i] = reg.Counter("sim_shard_events_total", "Events fired on this shard.", lbl)
		s.shardWindows[i] = reg.Counter("sim_shard_windows_total", "Conservative windows this shard actively executed.", lbl)
		s.shardWait[i] = reg.FloatCounter("sim_shard_barrier_wait_seconds_total", "Wall-clock time this shard spent waiting for window barriers.", lbl)
	}
}

// SetObs attaches a job trace: each parallel window records a barrier-stall
// span per shard that finished early enough to matter (>= 1ms of host time
// spent waiting on the slowest shard), on the scenario's trace row. A nil
// trace is a no-op, so the call can be wired unconditionally.
func (s *Shards) SetObs(tr *obs.Trace, tid int) {
	if tr == nil {
		return
	}
	s.obs = tr
	s.obsTID = tid
	// Stall spans need per-shard finish times even when metrics are off.
	if s.finishedAt == nil {
		s.finishedAt = make([]time.Time, len(s.engines))
	}
	s.timed = true
}

// OnBarrier registers fn to run on the coordinator at every window barrier
// (and between merged-mode phases), with all shard clocks equal. The charm
// runtime uses it to consolidate per-shard completion marks.
func (s *Shards) OnBarrier(fn func()) { s.hooks = append(s.hooks, fn) }

// RequireSequential adds one unit of sequential demand: from the next
// barrier on, the coordinator executes events in global (timestamp, shard,
// sequence) order until ReleaseSequential drops the demand to zero. Safe to
// call from shard workers mid-window.
func (s *Shards) RequireSequential() { s.seqDemand.Add(1) }

// ReleaseSequential removes one unit of sequential demand.
func (s *Shards) ReleaseSequential() {
	if s.seqDemand.Add(-1) < 0 {
		panic("sim: ReleaseSequential without matching RequireSequential")
	}
}

// ForceSequential pins the whole run to merged-sequential execution. The
// scenario layer uses it for elasticity scenarios, whose revoke/evacuate
// handlers reach across every shard.
func (s *Shards) ForceSequential() { s.forced = true }

// Sequential reports whether the coordinator is currently obliged to run
// merged-sequentially.
func (s *Shards) Sequential() bool { return s.forced || s.seqDemand.Load() > 0 }

// Cross schedules fn at time at on shard dst on behalf of shard src.
// Inside a parallel window it buffers into the (src,dst) mailbox; in
// coordinator context (merged mode, global events, construction) it
// schedules directly, which preserves the same canonical order because
// those contexts are single-threaded.
//
// The conservative contract requires at >= src's now + lookahead; a
// violation means some network path charges less latency than the
// lookahead assumes, so the windows are no longer conservative. That is
// always a construction-time bug (xnet.New validates the matching
// invariant), so it panics rather than silently corrupting determinism.
func (s *Shards) Cross(src, dst int, at Time, fn func()) {
	if min := s.engines[src].Now() + s.lookahead; at < min {
		panic(fmt.Sprintf(
			"sim: cross-shard event at %v violates conservative lookahead (shard %d now %v + lookahead %v)",
			at, src, s.engines[src].Now(), s.lookahead))
	}
	if !s.parallel {
		s.engines[dst].At(at, fn)
		return
	}
	mb := &s.mail[src][dst]
	mb.entries = append(mb.entries, crossEntry{at: at, src: src, fn: fn})
}

// GlobalAt schedules fn as a coordinator global event at time t: every
// shard will be parked at exactly t when it runs. Coordinator context only
// (construction, global handlers, merged-mode events). With one shard it
// is a plain event on the engine.
func (s *Shards) GlobalAt(t Time, fn func()) {
	if !s.Concurrent() {
		s.engines[0].At(t, fn)
		return
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling global event at %v before now %v", t, s.now))
	}
	s.globals.push(globalEvent{at: t, seq: s.gseq, fn: fn})
	s.gseq++
}

// GlobalAfter schedules fn as a global event d seconds from now.
func (s *Shards) GlobalAfter(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.GlobalAt(s.Now()+d, fn)
}

// RunUntil advances all shards to target, alternating conservative
// parallel windows, merged-sequential phases and global events as the
// model demands. On return every shard clock equals target. A single
// shard runs its engine straight to target and then the barrier hooks.
func (s *Shards) RunUntil(target Time) error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return fmt.Errorf("sim: RunUntil after Close")
	}
	if !s.Concurrent() {
		s.err = s.engines[0].RunUntil(target)
		s.runHooks()
		return s.err
	}
	for {
		s.drainMail()
		s.runHooks()
		if g, ok := s.globals.min(); ok && g <= s.now {
			s.runGlobalsAt(s.now)
			continue
		}
		if s.now >= target {
			return nil
		}
		if s.Sequential() {
			bound := target
			if g, ok := s.globals.min(); ok && g < bound {
				bound = g
			}
			if err := s.runMerged(bound); err != nil {
				s.err = err
				return err
			}
			continue
		}
		mn := Never
		for _, e := range s.engines {
			if t, ok := e.NextEventAt(); ok && t < mn {
				mn = t
			}
		}
		edge := target
		if g, ok := s.globals.min(); ok && g < edge {
			edge = g
		}
		if mn < Never {
			if w := mn + s.lookahead; w < edge {
				edge = w
			}
		}
		if err := s.window(edge); err != nil {
			s.err = err
			return err
		}
		// A shard that saw sequential demand mid-window stops before the
		// edge with events still pending below it; the coordinator clock
		// follows the slowest shard so those events run (merged) before any
		// global event or hook that a full advance would have unblocked.
		s.now = edge
		for _, e := range s.engines {
			if n := e.Now(); n < s.now {
				s.now = n
			}
		}
	}
}

// drainMail moves buffered cross-shard sends into the destination heaps in
// canonical (timestamp, source shard, send order) order. Coordinator only,
// with no window in flight.
func (s *Shards) drainMail() {
	for dst := range s.engines {
		buf := s.injectScratch[:0]
		for src := range s.engines {
			mb := &s.mail[src][dst].entries
			buf = append(buf, (*mb)...)
			clear(*mb)
			*mb = (*mb)[:0]
		}
		if len(buf) == 0 {
			continue
		}
		sort.SliceStable(buf, func(i, j int) bool {
			if buf[i].at != buf[j].at {
				return buf[i].at < buf[j].at
			}
			return buf[i].src < buf[j].src
		})
		for i := range buf {
			s.engines[dst].At(buf[i].at, buf[i].fn)
		}
		clear(buf)
		s.injectScratch = buf[:0]
	}
}

func (s *Shards) runHooks() {
	for _, fn := range s.hooks {
		fn()
	}
}

// runGlobalsAt fires every global event with timestamp <= t (they are
// never earlier than t by construction).
func (s *Shards) runGlobalsAt(t Time) {
	for {
		g, ok := s.globals.min()
		if !ok || g > t {
			return
		}
		ev := s.globals.pop()
		s.globalExec++
		s.metEvents.Inc()
		ev.fn()
	}
}

// runMerged executes events one at a time in global (timestamp, shard,
// sequence) order until bound, advancing every shard clock in lock step so
// cross-shard handler code always reads consistent times. It returns early
// (without reaching bound) as soon as sequential demand drops to zero.
//
// A shard that stopped its window early (see runShard) enters merged mode
// with its clock behind shards that ran to the window edge; the AdvanceTo
// calls are therefore guarded. An ahead shard has no events below the
// frontier — it already executed everything up to its own clock — so the
// event owning each step always runs on an engine whose clock equals the
// frontier.
func (s *Shards) runMerged(bound Time) error {
	for {
		best := -1
		var bt Time
		for i, e := range s.engines {
			if t, ok := e.NextEventAt(); ok && (best < 0 || t < bt) {
				best, bt = i, t
			}
		}
		if best < 0 || bt > bound {
			break
		}
		if s.limit > 0 && s.Executed() >= s.limit {
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", s.limit, s.now)
		}
		for _, e := range s.engines {
			if bt > e.Now() {
				e.AdvanceTo(bt)
			}
		}
		s.now = bt
		s.engines[best].Step()
		if !s.Sequential() {
			return nil
		}
	}
	for _, e := range s.engines {
		if bound > e.Now() {
			e.AdvanceTo(bound)
		}
	}
	s.now = bound
	return nil
}

// runShard executes one shard's events up to edge — Engine.RunUntil with
// one addition: it polls sequential demand before every event and stops as
// soon as any appears, leaving the clock at the last fired event.
//
// The poll is what keeps shared-runtime state off parallel windows. When a
// handler raises demand (a PE entering AtSync), every follow-up handler
// that reads cross-shard state is either on another shard — then it is a
// cross-shard message, at least Lookahead away, landing after the barrier —
// or on this same shard, where this poll defers it to merged mode. Other
// shards may observe the demand at a racy point, but their remaining window
// events touch only shard-local state, so which of them run before the
// barrier never affects the simulation.
func (s *Shards) runShard(e *Engine, edge Time) error {
	for e.pending.len() > 0 {
		ev := e.pending.ev[0]
		if ev.dead {
			e.pending.pop()
			e.recycle(ev)
			continue
		}
		if ev.at > edge {
			break
		}
		if s.forced || s.seqDemand.Load() > 0 {
			return nil
		}
		if e.limit > 0 && e.executed >= e.limit {
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", e.limit, e.now)
		}
		e.noteHeapDepth()
		e.pending.pop()
		fn := ev.fn
		e.now = ev.at
		e.executed++
		e.metEvents.Inc()
		e.recycle(ev)
		fn()
	}
	if edge > e.now {
		e.now = edge
	}
	return nil
}

// window advances every shard to edge: shards with due events run
// concurrently on their worker goroutines (or inline when only one shard
// has work), the rest just move their clocks.
func (s *Shards) window(edge Time) error {
	active := 0
	lone := -1
	for i, e := range s.engines {
		if t, ok := e.NextEventAt(); ok && t <= edge {
			s.inWindow[i] = true
			active++
			lone = i
		} else {
			s.inWindow[i] = false
			e.AdvanceTo(edge)
		}
	}
	defer s.accountWindow(edge)
	if active == 0 {
		return nil
	}
	if active == 1 {
		// Single busy shard: no concurrency to exploit; Cross falls back to
		// direct scheduling, which is the same canonical order.
		return s.runShard(s.engines[lone], edge)
	}
	s.startWorkers()
	s.parallel = true
	for i := range s.engines {
		if s.inWindow[i] {
			s.cmd[i] <- edge
		}
	}
	var err error
	errShard := len(s.engines)
	var lastDone time.Time
	for n := 0; n < active; n++ {
		d := <-s.done
		if d.err != nil && d.shard < errShard {
			err, errShard = d.err, d.shard
		}
		if s.timed {
			s.finishedAt[d.shard] = d.at
			if d.at.After(lastDone) {
				lastDone = d.at
			}
		}
	}
	s.parallel = false
	if s.timed {
		for i := range s.engines {
			if !s.inWindow[i] {
				continue
			}
			stall := lastDone.Sub(s.finishedAt[i])
			if s.shardWait != nil {
				s.shardWait[i].Add(stall.Seconds())
			}
			// Only material stalls become spans: every window stalls all but
			// the slowest shard by a few microseconds, and recording those
			// would exhaust the span budget without telling the reader
			// anything. 1ms of host time is already an outlier barrier.
			if s.obs != nil && stall >= time.Millisecond {
				s.obs.AddNow(obs.CatBarrier, "window-stall", s.obsTID, stall,
					"shard", i, "virtual_t", float64(edge))
			}
		}
	}
	return err
}

// accountWindow updates the per-shard telemetry after a window.
func (s *Shards) accountWindow(edge Time) {
	if s.shardEvents == nil {
		return
	}
	for i, e := range s.engines {
		if n := e.Executed(); n != s.lastExec[i] {
			s.shardEvents[i].Add(n - s.lastExec[i])
			s.lastExec[i] = n
		}
		if s.inWindow[i] {
			s.shardWindows[i].Inc()
		}
	}
}

func (s *Shards) startWorkers() {
	if s.started {
		return
	}
	s.started = true
	s.cmd = make([]chan Time, len(s.engines))
	s.done = make(chan workerDone, len(s.engines))
	for i := range s.engines {
		s.cmd[i] = make(chan Time, 1)
		go s.worker(i)
	}
}

func (s *Shards) worker(i int) {
	e := s.engines[i]
	for edge := range s.cmd[i] {
		err := s.runShard(e, edge)
		var at time.Time
		if s.timed {
			at = time.Now()
		}
		s.done <- workerDone{shard: i, err: err, at: at}
	}
}

// Close stops the worker goroutines. The Shards cannot run afterwards.
func (s *Shards) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.started {
		for _, c := range s.cmd {
			close(c)
		}
	}
}
