package main

import (
	"math"
	"strings"

	"cloudlb/internal/metrics"
)

// perLayerUnits lists every per-layer metric the traced run reports and
// its unit. Counts and times are per operation (per batch on
// stencil-testbed, per scenario on mol3d-sharded and cloud-churn-256; on
// service-mix per miss job for the simulation and publish series, per hit
// for the lookup series, per cycle for cpu.*). NOTES.md says which
// end-to-end metric each should move, on which workload.
var perLayerUnits = map[string]string{
	"cpu.apps": "s", "cpu.sim": "s", "cpu.machine": "s", "cpu.charm": "s",
	"cpu.xnet": "s", "cpu.lb": "s", "cpu.interfere": "s", "cpu.trace": "s",
	"cpu.runner": "s", "cpu.experiment": "s", "cpu.service": "s", "cpu.store": "s",
	"cpu.other": "s", "cpu.bench": "s", "cpu.runtime_gc": "s",

	"sim.events": "count", "sim.events_per_s": "1/s", "sim.heap_depth_max": "count",
	"sim.shard_windows": "count", "sim.events_per_window": "count", "sim.barrier_wait_s": "s",

	"charm.messages": "count", "charm.msg_pool_hit_ratio": "ratio", "charm.atsync": "count",

	"xnet.drops": "count", "xnet.retransmits": "count", "xnet.retransmit_ratio": "ratio",

	"lb.plan_s": "s", "lb.rounds": "count", "lb.moves_planned": "count",
	"lb.migrations": "count", "lb.applied_ratio": "ratio",

	"runner.busy_frac": "ratio", "runner.queue_wait_s": "s",

	"service.submit_ms": "ms", "service.queue_wait_ms": "ms", "service.execute_ms": "ms",
	"service.publish_ms": "ms", "service.fetch_ms": "ms", "service.artifact_bytes": "bytes",
	"service.cache_lookup_ms": "ms", "service.hit_ms": "ms",

	"experiment.hash_us": "us", "store.resolve_us": "us", "store.get_ms": "ms", "store.put_ms": "ms",

	"trace.overhead_s": "s",
}

// layers accumulates per-layer observations over a run's traced
// operations. A metric's value is the mean of its observations; one never
// observed is absent — its layer did not run on this workload.
type layers struct {
	sum map[string]float64
	n   map[string]int
}

func newLayers() *layers {
	return &layers{sum: map[string]float64{}, n: map[string]int{}}
}

func (l *layers) observe(name string, v float64) {
	if _, ok := perLayerUnits[name]; !ok {
		panic("perfbench: unlisted per-layer metric " + name)
	}
	l.sum[name] += v
	l.n[name]++
}

// set records a metric computed over the whole run rather than per op.
func (l *layers) set(name string, v float64, n int) {
	if math.IsNaN(v) {
		return
	}
	l.observe(name, v)
	l.n[name] = n
}

func (l *layers) report() map[string]metric {
	out := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		n := l.n[name]
		m := metric{Unit: unit, N: n, Absent: n == 0}
		if n > 0 {
			m.Value = l.sum[name] / float64(n)
		}
		// A layer no profile sample landed in did not run.
		if strings.HasPrefix(name, "cpu.") && m.Value == 0 {
			m.Absent = true
		}
		out[name] = m
	}
	return out
}

// series sums a snapshot's series by name across labels (histograms
// contribute their sum). A missing name means the layer that registers
// it never ran.
type series map[string]float64

func readSeries(snap metrics.Snapshot) series {
	s := series{}
	for _, x := range snap.Series {
		v := x.Value
		if x.Kind == "histogram" {
			v = x.Sum
		}
		if strings.HasSuffix(x.Name, "_max") {
			s[x.Name] = math.Max(s[x.Name], v)
			continue
		}
		s[x.Name] += v
	}
	return s
}

// observeSim records the simulation-layer series of one operation: a
// fresh registry's readings after a scenario, a batch, or a service
// job's metrics.json. wall is the host time the events ran in.
func (l *layers) observeSim(s series, wall float64) {
	counts := []struct{ metric, series string }{
		{"sim.events", "sim_events_total"},
		{"sim.heap_depth_max", "sim_event_heap_depth_max"},
		{"sim.shard_windows", "sim_shard_windows_total"},
		{"sim.barrier_wait_s", "sim_shard_barrier_wait_seconds_total"},
		{"charm.messages", "charm_messages_sent_total"},
		{"charm.atsync", "charm_atsync_total"},
		{"xnet.drops", "xnet_drops_total"},
		{"xnet.retransmits", "xnet_retransmits_total"},
		{"lb.plan_s", "charm_lb_strategy_wall_seconds_total"},
		{"lb.rounds", "charm_lb_rounds_total"},
		{"lb.moves_planned", "charm_lb_moves_planned_total"},
		{"lb.migrations", "charm_lb_migrations_total"},
	}
	for _, c := range counts {
		if v, ok := s[c.series]; ok {
			l.observe(c.metric, v)
		}
	}
	events, ok := s["sim_events_total"]
	if ok && wall > 0 {
		l.observe("sim.events_per_s", events/wall)
	}
	if w, ok := s["sim_shard_windows_total"]; ok && w > 0 {
		l.observe("sim.events_per_window", events/w)
	}
	if sent, ok := s["charm_messages_sent_total"]; ok && sent > 0 {
		pooled := s["charm_messages_pooled_total"]
		l.observe("charm.msg_pool_hit_ratio", pooled/sent)
		if re, ok := s["xnet_retransmits_total"]; ok {
			l.observe("xnet.retransmit_ratio", re/sent)
		}
	}
	if planned, ok := s["charm_lb_moves_planned_total"]; ok && planned > 0 {
		mig := s["charm_lb_migrations_total"]
		l.observe("lb.applied_ratio", mig/planned)
	}
}
