package experiment

import (
	"fmt"
	"math/rand"

	"cloudlb/internal/charm"
	"cloudlb/internal/interfere"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
	"cloudlb/internal/xnet"
)

// newNet builds the helper scenarios' network through the same resolution
// path as Run (a zero Config resolved to the defaults), so there is no
// second hardcoded copy of the parameters to drift from the lookahead
// derivation.
func newNet(m *machine.Machine) *xnet.Network {
	return xnet.New(m, xnet.Config{}.Resolved())
}

func newRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*2654435761 + 12345))
}

func newAppRTS(m *machine.Machine, net *xnet.Network, cores []int, strat StrategyKind, rec *trace.Recorder) *charm.RTS {
	return charm.NewRTS(charm.Config{
		Machine: m, Net: net, Cores: cores,
		Strategy: buildStrategy(strat, 0, net.Config().InterNodeBandwidth, 0, 0),
		Trace:    rec,
		Name:     "app",
	})
}

func interfereHog(m *machine.Machine, coreID int, start, stop sim.Time, rec *trace.Recorder) *interfere.Hog {
	return interfere.StartHog(m, interfere.HogConfig{
		Core: coreID, Start: start, Stop: stop,
		BurstCPU: 0.02, Trace: rec,
	})
}

// drive advances the simulation one virtual second at a time until done()
// or the virtual deadline, and reports whether done() holds. After each
// second it publishes per-core busy/idle from the driving goroutine (so a
// live /metrics scrape never touches scheduler state) and, because finish
// times consolidate at the first barrier after they occur, re-baselines
// the busy logs to bound their memory.
func drive(sh *sim.Shards, mach *machine.Machine, done func() bool, deadline sim.Time) bool {
	for !done() && sh.Now() < deadline {
		if err := sh.RunUntil(sh.Now() + 1); err != nil {
			panic(err)
		}
		mach.PublishMetrics()
		mach.TrimBusyLogs()
	}
	return done()
}

// mustFinish drives the simulation until done(), panicking if the virtual
// deadline passes first.
func mustFinish(sh *sim.Shards, mach *machine.Machine, done func() bool, deadline sim.Time) {
	if !drive(sh, mach, done, deadline) {
		panic(fmt.Sprintf("experiment: simulation did not finish by t=%v", deadline))
	}
}
