// Package elastic injects cloud elasticity events — spot-instance style
// core revocations and later replacements — into a charm runtime. The
// paper's load balancing is evaluated under interference; this package
// supplies the companion failure model for the cloud setting the paper
// targets, where a provider can reclaim capacity mid-run (often with a
// short warning) and hand back a replacement later.
//
// A Schedule is a script of Revocations, either written by hand or drawn
// from a seeded Poisson process. Apply arms the script on a runtime's
// engine; the runtime's RevokePE/RestorePE do the heavy lifting.
package elastic

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"cloudlb/internal/charm"
	"cloudlb/internal/sim"
)

// Revocation is one preemption: the PE's core goes offline at At, with
// Warning seconds of advance notice (0 = hard kill, detected only after
// the runtime's fault detection delay). If Restore is nonzero the PE
// comes back at that time — on ReplacementCore, or on the original core
// when ReplacementCore is -1.
type Revocation struct {
	PE              int          `json:"pe"`
	At              sim.Time     `json:"at"`
	Warning         sim.Duration `json:"warning,omitempty"`
	Restore         sim.Time     `json:"restore,omitempty"`
	ReplacementCore int          `json:"replacement_core,omitempty"`
}

// Schedule is a set of revocations applied to one runtime.
type Schedule []Revocation

// Validate checks a schedule against a runtime with numPEs PEs: times in
// range, warnings not reaching before t=0, restores after their outages
// begin, and no PE revoked again before it was restored.
func (s Schedule) Validate(numPEs int) error {
	lastRestore := make(map[int]sim.Time)
	for _, r := range sorted(s) {
		if r.PE < 0 || r.PE >= numPEs {
			return fmt.Errorf("elastic: revocation of PE %d outside [0,%d)", r.PE, numPEs)
		}
		if r.Warning < 0 {
			return fmt.Errorf("elastic: PE %d has negative warning %v", r.PE, r.Warning)
		}
		notice := r.At - sim.Time(r.Warning)
		if notice < 0 {
			return fmt.Errorf("elastic: PE %d notice at %v is before the run starts", r.PE, notice)
		}
		if r.Restore != 0 && r.Restore <= r.At {
			return fmt.Errorf("elastic: PE %d restored at %v, before its revocation at %v", r.PE, r.Restore, r.At)
		}
		if r.ReplacementCore < -1 {
			return fmt.Errorf("elastic: PE %d has invalid replacement core %d", r.PE, r.ReplacementCore)
		}
		if until, revoked := lastRestore[r.PE]; revoked {
			if until == 0 || notice < until {
				return fmt.Errorf("elastic: PE %d revoked again at %v while still revoked", r.PE, notice)
			}
		}
		lastRestore[r.PE] = r.Restore
	}
	return nil
}

// Apply validates the schedule and arms its events as coordinator events
// on the runtime's machine (revocations reach across every shard). Call
// before running the simulation.
func (s Schedule) Apply(rts *charm.RTS) {
	if err := s.Validate(rts.NumPEs()); err != nil {
		panic(err)
	}
	mach := rts.Machine()
	for _, r := range sorted(s) {
		r := r
		mach.GlobalAt(r.At-sim.Time(r.Warning), func() { rts.RevokePE(r.PE, r.Warning) })
		if r.Restore != 0 {
			mach.GlobalAt(r.Restore, func() { rts.RestorePE(r.PE, r.ReplacementCore) })
		}
	}
}

// sorted returns the schedule ordered by notice time (PE as tie-break),
// the order events are armed in.
func sorted(s Schedule) Schedule {
	out := append(Schedule(nil), s...)
	slices.SortStableFunc(out, func(a, b Revocation) int {
		na := a.At - sim.Time(a.Warning)
		nb := b.At - sim.Time(b.Warning)
		if na != nb {
			return cmp.Compare(na, nb)
		}
		return a.PE - b.PE
	})
	return out
}

// PoissonConfig parameterizes a random revocation schedule.
type PoissonConfig struct {
	// Seed makes the schedule reproducible.
	Seed int64
	// RatePerSecond is the arrival rate of revocation notices across the
	// whole allocation.
	RatePerSecond float64
	// Horizon bounds notice times to [0, Horizon).
	Horizon float64
	// PEs is the number of PEs revocations may target.
	PEs int
	// Warning is the advance notice of every revocation (0 = hard kills).
	Warning float64
	// MeanOutage is the mean of the exponentially distributed outage
	// length; 0 means revoked cores never come back.
	MeanOutage float64
	// ReplacementCores is an optional pool of spare core IDs handed out in
	// order to restores; when exhausted (or empty) restores reuse the
	// original core.
	ReplacementCores []int
}

// Poisson draws a schedule from a seeded Poisson process: exponential
// inter-arrival times between notices, a uniformly random target PE, and
// exponential outage lengths. Arrivals that would revoke an already-down
// PE, or take the last live PE, are dropped — the provider reclaims
// capacity, it does not kill the job. The same config always yields the
// same schedule.
func Poisson(cfg PoissonConfig) Schedule {
	if cfg.RatePerSecond <= 0 || cfg.Horizon <= 0 || cfg.PEs <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed*2654435761 + 12345))
	var out Schedule
	downUntil := make(map[int]sim.Time) // 0 = forever
	downAt := func(at sim.Time) int {
		n := 0
		for _, until := range downUntil {
			if until == 0 || at < until {
				n++
			}
		}
		return n
	}
	spare := append([]int(nil), cfg.ReplacementCores...)
	t := 0.0
	for {
		t += rng.ExpFloat64() / cfg.RatePerSecond
		if t >= cfg.Horizon {
			return out
		}
		notice := sim.Time(t)
		pe := rng.Intn(cfg.PEs)
		if until, dead := downUntil[pe]; dead && (until == 0 || notice < until) {
			continue
		}
		if downAt(notice)+1 >= cfg.PEs {
			continue
		}
		at := notice + sim.Time(cfg.Warning)
		r := Revocation{PE: pe, At: at, Warning: sim.Duration(cfg.Warning), ReplacementCore: -1}
		if cfg.MeanOutage > 0 {
			r.Restore = at + sim.Time(cfg.MeanOutage*rng.ExpFloat64())
			if len(spare) > 0 {
				r.ReplacementCore = spare[0]
				spare = spare[1:]
			}
		}
		downUntil[pe] = r.Restore
		out = append(out, r)
	}
}
