// Package power models node power draw and meters energy consumption.
//
// Each node draws a constant base power (fans, disks, DRAM refresh, PSU
// losses) plus a dynamic component proportional to the utilization of each
// of its cores. The defaults use the paper's own testbed numbers: 40 W base
// and 170 W peak for a quad-core node, i.e. 32.5 W of dynamic power per
// fully busy core.
//
// A Meter samples every node once per simulated second, like the per-second
// power meters on the paper's testbed, and integrates the samples into
// energy. Sampling is driven by simulation events, so the meter perturbs
// nothing.
package power

import (
	"fmt"

	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
)

// Model maps core utilization to node power draw.
type Model struct {
	// BaseWatts is drawn by a node regardless of load.
	BaseWatts float64
	// DynamicWattsPerCore is the additional draw of one core at 100%
	// utilization; it scales linearly with utilization.
	DynamicWattsPerCore float64
}

// DefaultModel reproduces the paper's testbed: 40 W base, 170 W peak for a
// node with four fully loaded cores.
func DefaultModel() Model {
	return Model{BaseWatts: 40, DynamicWattsPerCore: 32.5}
}

// NodePower computes a node's draw given per-core utilizations in [0,1].
func (m Model) NodePower(coreUtil []float64) float64 {
	p := m.BaseWatts
	for _, u := range coreUtil {
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		p += m.DynamicWattsPerCore * u
	}
	return p
}

// Sample is one per-second meter reading.
type Sample struct {
	At       sim.Time
	NodeWatt []float64 // indexed by node ID
}

// Total returns the machine-wide draw for the sample.
func (s Sample) Total() float64 {
	t := 0.0
	for _, w := range s.NodeWatt {
		t += w
	}
	return t
}

// Meter periodically samples node power on a machine.
type Meter struct {
	mach     *machine.Machine
	model    Model
	interval sim.Time
	nodes    []int // node IDs under measurement; nil means all

	samples  []Sample
	lastBusy [][]sim.Time // [node][coreLocal] cumulative busy at last sample
	lastAt   sim.Time
	startAt  sim.Time
	running  bool
	stopped  bool
	energyJ  float64
}

// NewMeter creates a meter over the given nodes (nil or empty = all nodes)
// sampling at the given interval (<=0 means 1 second).
func NewMeter(mach *machine.Machine, model Model, interval sim.Time, nodes []int) *Meter {
	if interval <= 0 {
		interval = 1
	}
	if len(nodes) == 0 {
		nodes = make([]int, mach.NumNodes())
		for i := range nodes {
			nodes[i] = i
		}
	}
	return &Meter{mach: mach, model: model, interval: interval, nodes: nodes}
}

// Start begins sampling at the current instant. Calling Start twice panics.
func (m *Meter) Start() {
	if m.running || m.stopped {
		panic("power: meter already started")
	}
	m.running = true
	m.lastAt = m.mach.Now()
	m.startAt = m.lastAt
	if m.mach.Shards().Concurrent() {
		// With several shards the final reading may be taken for an
		// instant the shards have already run past (StopAsOf), so the
		// metered cores keep busy logs for exact reconstruction. A single
		// shard stops the meter at the finish instant itself.
		var ids []int
		for _, n := range m.nodes {
			for _, c := range m.mach.Node(n).Cores() {
				ids = append(ids, c.ID)
			}
		}
		m.mach.EnableBusyLog(ids)
	}
	m.lastBusy = make([][]sim.Time, m.mach.NumNodes())
	for _, n := range m.nodes {
		node := m.mach.Node(n)
		m.lastBusy[n] = make([]sim.Time, len(node.Cores()))
		for i, c := range node.Cores() {
			busy, _ := c.ProcStat()
			m.lastBusy[n][i] = busy
		}
	}
	m.scheduleNext()
}

func (m *Meter) scheduleNext() {
	// Samples touch cores on every metered node, so they run as
	// coordinator global events with all shards parked at the sample
	// instant.
	m.mach.GlobalAfter(m.interval, func() {
		if !m.running {
			return
		}
		m.sample()
		m.scheduleNext()
	})
}

// sample reads utilization since the previous sample and appends a reading.
func (m *Meter) sample() {
	m.sampleAt(m.mach.Now(), func(c *machine.Core) sim.Time {
		busy, _ := c.ProcStat()
		return busy
	})
}

// sampleAt appends a reading for the instant now, reading each core's
// cumulative busy counter through busyOf.
func (m *Meter) sampleAt(now sim.Time, busyOf func(*machine.Core) sim.Time) {
	dt := float64(now - m.lastAt)
	if dt <= 0 {
		return
	}
	watt := make([]float64, m.mach.NumNodes())
	for _, n := range m.nodes {
		node := m.mach.Node(n)
		util := make([]float64, len(node.Cores()))
		for i, c := range node.Cores() {
			busy := busyOf(c)
			util[i] = float64(busy-m.lastBusy[n][i]) / dt
			m.lastBusy[n][i] = busy
		}
		watt[n] = m.model.NodePower(util)
	}
	s := Sample{At: now, NodeWatt: watt}
	m.samples = append(m.samples, s)
	m.energyJ += s.Total() * dt
	m.lastAt = now
}

// Stop takes a final partial-interval sample and stops the meter.
func (m *Meter) Stop() {
	if !m.running {
		return
	}
	m.sample()
	m.running = false
	m.stopped = true
}

// StopAsOf stops the meter with its final sample taken for the instant t,
// which may lie before the shards' current clocks: the busy counters are
// reconstructed (Core.BusyAt, from the logs Start enabled when t precedes
// a core's last settlement), yielding bit-identical values to a Stop
// executed exactly at t. The scenario runner uses it for application
// finishes, which several shards consolidate at a later window barrier.
func (m *Meter) StopAsOf(t sim.Time) {
	if !m.running {
		return
	}
	m.sampleAt(t, func(c *machine.Core) sim.Time { return c.BusyAt(t) })
	m.running = false
	m.stopped = true
}

// Samples returns all readings taken so far.
func (m *Meter) Samples() []Sample { return m.samples }

// EnergyJoules returns the integrated machine-wide energy.
func (m *Meter) EnergyJoules() float64 { return m.energyJ }

// AveragePowerWatts returns total energy divided by metered time.
func (m *Meter) AveragePowerWatts() float64 {
	if len(m.samples) == 0 {
		return 0
	}
	span := float64(m.samples[len(m.samples)-1].At - m.startAt)
	if span <= 0 {
		return 0
	}
	return m.energyJ / span
}

// String summarizes the meter for diagnostics.
func (m *Meter) String() string {
	return fmt.Sprintf("power.Meter{samples=%d energy=%.1fJ avg=%.1fW}",
		len(m.samples), m.energyJ, m.AveragePowerWatts())
}
