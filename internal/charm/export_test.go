package charm

import "fmt"

// refActiveSync is the reference the O(1) AtSync counters replaced: a
// walk over the PE's hosted chares counting those not Done, and of them
// those in the PE's synced set.
func refActiveSync(p *pe) (active, syncedActive int) {
	for _, s := range p.roster {
		if p.rts.slots[s].done {
			continue
		}
		active++
		if p.synced[s] {
			syncedActive++
		}
	}
	return active, syncedActive
}

// refNonEmptyPEs is nonEmptyPEs over the reference walk.
func refNonEmptyPEs(r *RTS) int {
	n := 0
	for _, p := range r.pes {
		if active, _ := refActiveSync(p); active > 0 {
			n++
		}
	}
	return n
}

// PECounterDivergence compares one PE's AtSync counters with the
// reference recount, returning "" when they agree. It reads only that
// PE's state and its hosted chares' slots, so a chare may call it for its
// own PE from inside an entry method on a sharded run.
func PECounterDivergence(r *RTS, peIdx int) string {
	p := r.pes[peIdx]
	active, synced := refActiveSync(p)
	if p.active != active || p.syncedActive != synced {
		return fmt.Sprintf("PE %d at t=%v: counters (active %d, syncedActive %d), recount (%d, %d)",
			peIdx, p.eng.Now(), p.active, p.syncedActive, active, synced)
	}
	return ""
}

// CounterDivergence checks every PE's counters, nonEmptyPEs, and the
// residence table (each roster lists exactly the slots homed on its PE)
// against reference recounts. Call it only with every shard parked.
func CounterDivergence(r *RTS) string {
	homed := make([]int, len(r.pes))
	for s := range r.slots {
		if h := r.slots[s].home; h >= 0 {
			homed[h]++
		}
	}
	for i, p := range r.pes {
		if msg := PECounterDivergence(r, i); msg != "" {
			return msg
		}
		if homed[i] != len(p.roster) {
			return fmt.Sprintf("PE %d: %d slots homed, roster of %d", i, homed[i], len(p.roster))
		}
		for _, s := range p.roster {
			if !p.hosts(s) {
				return fmt.Sprintf("PE %d: roster slot %d homed on PE %d", i, s, r.slots[s].home)
			}
		}
	}
	if got, want := r.nonEmptyPEs(), refNonEmptyPEs(r); got != want {
		return fmt.Sprintf("nonEmptyPEs %d, recount %d", got, want)
	}
	return ""
}

// SyncedWaiting reports how many of a PE's active chares have synced
// while the PE itself still waits for the rest (0 once it is in sync).
func SyncedWaiting(r *RTS, peIdx int) int {
	p := r.pes[peIdx]
	if p.inSync || p.syncedActive == p.active {
		return 0
	}
	return p.syncedActive
}

// LBBusy exposes lbBusy: whether an LB step is in progress anywhere.
func LBBusy(r *RTS) bool { return r.lbBusy() }
