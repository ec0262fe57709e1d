package charm

// Quiescence detection: the runtime can report the instant at which no
// entry method is executing, no message (application or system) is in
// flight or queued, and no load balancing step is active. Charm++ exposes
// the same capability (CkStartQD); applications use it to terminate
// phases whose message volume is data-dependent, where counting Done
// calls is impossible.
//
// The simulator makes exact detection cheap: every runtime-originated
// network send increments an in-flight counter that its delivery
// decrements, and PEs check for global quiet whenever they run out of
// work.

// StartQD registers fn to run at the next quiescent instant. If the
// runtime is already quiescent, fn fires at the current virtual time
// (asynchronously, like every other runtime callback). Each registration
// fires exactly once.
func (r *RTS) StartQD(fn func()) {
	// The quiescence check reads queue and in-flight state on every shard,
	// so the whole wait runs merged-sequentially. Released when the waiter
	// fires.
	r.sh.RequireSequential()
	r.qdWaiters = append(r.qdWaiters, fn)
	r.maybeQuiesce()
}

// netSend transmits a runtime message with in-flight accounting, so
// quiescence detection sees it. The source shard's slot is incremented
// here (source execution context) and the destination's decremented at
// delivery (destination context); only the sum across slots is meaningful.
func (r *RTS) netSend(srcCore, dstCore, bytes int, deliver func()) {
	dstShard := r.cfg.Machine.ShardOf(dstCore)
	r.netInflight[r.cfg.Machine.ShardOf(srcCore)].n++
	r.cfg.Net.Send(srcCore, dstCore, bytes, func() {
		r.netInflight[dstShard].n--
		deliver()
	})
}

// quiescent reports whether nothing can happen anymore without external
// input. A runtime that has not started yet is not quiescent: waiters
// registered before Start observe the quiet *after* the work, which is
// what quiescence means.
func (r *RTS) quiescent() bool {
	if !r.started || r.lb.active {
		return false
	}
	inflight := 0
	for i := range r.netInflight {
		inflight += r.netInflight[i].n
	}
	if inflight > 0 {
		return false
	}
	for _, p := range r.pes {
		if p.running || p.inSync || p.appQ.len() > 0 || p.sysQ.len() > 0 {
			return false
		}
	}
	return true
}

// maybeQuiesce fires QD waiters if the runtime is quiet. PEs call it
// whenever they drain their queues. With waiters pending the run is
// sequential (StartQD pinned it), so the cross-shard reads in quiescent
// are safe; without waiters this returns after one length check.
func (r *RTS) maybeQuiesce() {
	if len(r.qdWaiters) == 0 || !r.quiescent() {
		return
	}
	waiters := r.qdWaiters
	r.qdWaiters = nil
	fire := func() {
		for _, fn := range waiters {
			fn()
		}
		for range waiters {
			r.sh.ReleaseSequential()
		}
		if !r.sh.Sequential() {
			r.primeMemos()
		}
	}
	// The coordinator clock: the quiescent instant is wherever merged
	// execution has advanced to, whichever shard detected it.
	r.sh.GlobalAfter(0, fire)
}
