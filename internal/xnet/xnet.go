// Package xnet models the cluster interconnect of a cloud data center —
// including its unreliability.
//
// Messages between cores experience a per-message latency plus a
// serialization delay of size/bandwidth. Transfers leaving a node share the
// node's NIC: back-to-back sends from one node queue behind each other,
// which is what makes bulk object migration visibly expensive in wall-clock
// time, as the paper observes. Intra-node messages (shared memory) use a
// separate, cheaper path and do not occupy the NIC.
//
// Beyond the uniform reliable baseline, the network can be heterogeneous
// and lossy, in the spirit of the cloud interconnects the paper targets:
//
//   - Per-link overrides (Config.Links) give individual node pairs their
//     own latency and bandwidth.
//   - Straggler nodes (Config.StragglerNodes/StragglerFactor) multiply the
//     latency and divide the bandwidth of every inter-node link touching
//     them — the persistently slow VM of a multi-tenant host.
//   - Seeded packet loss (Config.DropPct/Seed) drops inter-node
//     transmissions; the sender retransmits after an exponentially
//     backed-off timeout (Config.RetransmitTimeout), re-occupying the NIC
//     for each attempt, up to Config.MaxAttempts — the final attempt
//     always delivers, so the transport is reliable-with-retransmit like
//     TCP, never silently lossy (a lost message would deadlock the
//     AtSync/reduction protocols, which is not the failure model under
//     study). Intra-node (shared memory) messages never drop.
//
// The drop lottery is a pure hash of (Seed, source core, destination core,
// per-pair attempt sequence), so outcomes are deterministic per seed and —
// because each (src,dst) stream is owned by the source core's shard —
// independent of shard count and goroutine scheduling.
//
// Delivery between any ordered pair of cores is in order even across
// retransmits: a message sent earlier is never delivered later than one
// sent afterwards.
//
// NIC semantics under elasticity: a node's NIC belongs to the host, not
// the tenant. Revoking a node's cores (internal/elastic) neither resets
// nor releases the NIC queue — transfers already serialized complete on
// schedule, late sends routed from a revoked node (e.g. message forwarding
// during the fault-detection window) still queue behind them, and a
// restored node continues on the same NIC clock. Send does not check
// Core.Online for the same reason.
//
// Under a sharded scheduler the inter-node latency doubles as the
// conservative lookahead: every cross-shard delivery lands at least the
// minimum effective inter-node latency after its send. New validates that
// the scheduler's lookahead does not exceed that minimum, so a config
// edit that lowers a link latency fails loudly instead of silently
// breaking window conservatism.
package xnet

import (
	"fmt"
	"math"

	"cloudlb/internal/machine"
	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
	"cloudlb/internal/sim"
)

// Link overrides the inter-node parameters of one directed node pair.
type Link struct {
	// Src and Dst are node IDs (not core IDs). The override applies to
	// messages flowing Src -> Dst only; list both directions for a
	// symmetric link. When the same pair appears more than once the last
	// entry wins.
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Latency and Bandwidth replace the base inter-node values for this
	// link; a zero field inherits the base value.
	Latency   float64 `json:"latency,omitempty"`   // seconds
	Bandwidth float64 `json:"bandwidth,omitempty"` // bytes/second
}

// Config holds the interconnect parameters. It is a plain serializable
// value — experiment.Spec carries one per scenario — and the single
// source of truth for both the Network and the sharded scheduler's
// conservative lookahead (see MinInterNodeLatency).
type Config struct {
	// IntraNodeLatency and IntraNodeBandwidth describe core-to-core
	// transfers within a node (shared memory copy).
	IntraNodeLatency   float64 `json:"intra_node_latency,omitempty"`   // seconds
	IntraNodeBandwidth float64 `json:"intra_node_bandwidth,omitempty"` // bytes/second
	// InterNodeLatency and InterNodeBandwidth describe transfers between
	// nodes (the commodity Ethernet of a cloud data center).
	InterNodeLatency   float64 `json:"inter_node_latency,omitempty"`   // seconds
	InterNodeBandwidth float64 `json:"inter_node_bandwidth,omitempty"` // bytes/second

	// Links gives individual directed node pairs their own latency and
	// bandwidth (heterogeneous topologies, oversubscribed uplinks).
	Links []Link `json:"links,omitempty"`

	// StragglerNodes lists nodes with persistently slow network paths:
	// every inter-node link touching one has its effective latency
	// multiplied and bandwidth divided by StragglerFactor, applied after
	// Links overrides. StragglerFactor 1 (or an empty node set) is a
	// no-op; Resolved fills a zero factor with 1.
	StragglerNodes  []int   `json:"straggler_nodes,omitempty"`
	StragglerFactor float64 `json:"straggler_factor,omitempty"`

	// DropPct is the percentage [0, 100) of inter-node transmissions
	// lost before delivery. Each lost transmission is retransmitted
	// after a timeout; see RetransmitTimeout and MaxAttempts.
	DropPct float64 `json:"drop_pct,omitempty"`
	// Seed drives the drop lottery. The same seed always loses the same
	// transmissions, at any shard count.
	Seed int64 `json:"seed,omitempty"`
	// RetransmitTimeout is how long the sender waits for an ack after a
	// transmission ends before resending; it doubles after every loss
	// (exponential backoff). Resolved defaults it to 4x the resolved
	// inter-node latency.
	RetransmitTimeout float64 `json:"retransmit_timeout,omitempty"` // seconds
	// MaxAttempts bounds transmissions per message; the final attempt
	// always delivers (see the package comment). Resolved defaults it
	// to 5.
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// DefaultConfig models commodity gigabit Ethernet between nodes and shared
// memory within a node, roughly matching the class of testbed in the
// paper: uniform, reliable (DropPct 0), no stragglers.
func DefaultConfig() Config {
	return Config{
		IntraNodeLatency:   1e-6,
		IntraNodeBandwidth: 5e9,
		InterNodeLatency:   50e-6,
		InterNodeBandwidth: 1.0e8, // ~1 Gb/s payload rate
		StragglerFactor:    1,
		RetransmitTimeout:  200e-6,
		MaxAttempts:        5,
	}
}

// Resolved fills every unset (zero) field with its default: the
// DefaultConfig link parameters, straggler factor 1, retransmit timeout
// 4x the resolved inter-node latency, 5 attempts. The zero Config
// resolves to exactly DefaultConfig(). This is the one resolution path
// the scenario layer uses, so the Network and the shard lookahead can
// never be built from diverging copies of the defaults.
func (c Config) Resolved() Config {
	d := DefaultConfig()
	if c.IntraNodeLatency == 0 {
		c.IntraNodeLatency = d.IntraNodeLatency
	}
	if c.IntraNodeBandwidth == 0 {
		c.IntraNodeBandwidth = d.IntraNodeBandwidth
	}
	if c.InterNodeLatency == 0 {
		c.InterNodeLatency = d.InterNodeLatency
	}
	if c.InterNodeBandwidth == 0 {
		c.InterNodeBandwidth = d.InterNodeBandwidth
	}
	if c.StragglerFactor == 0 {
		c.StragglerFactor = 1
	}
	if c.RetransmitTimeout == 0 {
		c.RetransmitTimeout = 4 * c.InterNodeLatency
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = d.MaxAttempts
	}
	return c
}

// IsZero reports whether no field is set (the "use defaults" marker on
// experiment.Scenario and Options).
func (c Config) IsZero() bool {
	return c.IntraNodeLatency == 0 && c.IntraNodeBandwidth == 0 &&
		c.InterNodeLatency == 0 && c.InterNodeBandwidth == 0 &&
		len(c.Links) == 0 && len(c.StragglerNodes) == 0 &&
		c.StragglerFactor == 0 && c.DropPct == 0 && c.Seed == 0 &&
		c.RetransmitTimeout == 0 && c.MaxAttempts == 0
}

func (c Config) isStraggler(node int) bool {
	for _, n := range c.StragglerNodes {
		if n == node {
			return true
		}
	}
	return false
}

// EffectiveLink reports the latency and bandwidth of the directed
// inter-node link srcNode -> dstNode: the base parameters, a Links
// override if one matches, then the straggler multiplier if either
// endpoint straggles.
func (c Config) EffectiveLink(srcNode, dstNode int) (latency, bandwidth float64) {
	latency, bandwidth = c.InterNodeLatency, c.InterNodeBandwidth
	for _, l := range c.Links {
		if l.Src == srcNode && l.Dst == dstNode {
			if l.Latency != 0 {
				latency = l.Latency
			}
			if l.Bandwidth != 0 {
				bandwidth = l.Bandwidth
			}
		}
	}
	if c.isStraggler(srcNode) || c.isStraggler(dstNode) {
		f := c.StragglerFactor
		if f <= 0 {
			f = 1
		}
		latency *= f
		bandwidth /= f
	}
	return latency, bandwidth
}

// MinInterNodeLatency reports the minimum effective latency over every
// directed inter-node link of an n-node cluster — the largest
// conservative lookahead a sharded scheduler over this network may use
// (retransmits and in-order clamps only delay arrivals further, so every
// cross-node delivery lands at least this far after its send).
func (c Config) MinInterNodeLatency(nodes int) float64 {
	mn, found := c.InterNodeLatency, false
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			if s == d {
				continue
			}
			lat, _ := c.EffectiveLink(s, d)
			if !found || lat < mn {
				mn, found = lat, true
			}
		}
	}
	return mn
}

// validate panics on nonsensical parameters, like machine.New: a bad
// network shape is always a programming error in this codebase.
func (c Config) validate(nodes int) {
	if c.IntraNodeBandwidth <= 0 || c.InterNodeBandwidth <= 0 {
		panic("xnet: bandwidths must be positive")
	}
	if c.IntraNodeLatency < 0 || c.InterNodeLatency < 0 {
		panic("xnet: latencies must be nonnegative")
	}
	if c.DropPct < 0 || c.DropPct >= 100 {
		panic(fmt.Sprintf("xnet: DropPct %v outside [0,100)", c.DropPct))
	}
	if c.DropPct > 0 {
		if c.RetransmitTimeout <= 0 {
			panic("xnet: DropPct > 0 requires a positive RetransmitTimeout (use Config.Resolved for defaults)")
		}
		if c.MaxAttempts < 1 {
			panic("xnet: DropPct > 0 requires MaxAttempts >= 1 (use Config.Resolved for defaults)")
		}
	}
	if len(c.StragglerNodes) > 0 && (!(c.StragglerFactor > 0) || math.IsInf(c.StragglerFactor, 0)) {
		panic(fmt.Sprintf("xnet: straggler factor %v must be finite and positive", c.StragglerFactor))
	}
	for _, n := range c.StragglerNodes {
		if n < 0 || n >= nodes {
			panic(fmt.Sprintf("xnet: straggler node %d outside [0,%d)", n, nodes))
		}
	}
	for _, l := range c.Links {
		if l.Src < 0 || l.Src >= nodes || l.Dst < 0 || l.Dst >= nodes {
			panic(fmt.Sprintf("xnet: link override %d->%d outside [0,%d)", l.Src, l.Dst, nodes))
		}
		if l.Src == l.Dst {
			panic(fmt.Sprintf("xnet: link override %d->%d is intra-node", l.Src, l.Dst))
		}
		if l.Latency < 0 || l.Bandwidth < 0 {
			panic(fmt.Sprintf("xnet: link override %d->%d has negative parameters", l.Src, l.Dst))
		}
	}
}

// Network delivers messages between cores of one machine.
//
// Under a sharded scheduler every piece of network state is owned by one
// shard: a node's NIC queue belongs to the node's shard, and the
// per-pair bookkeeping (in-order clamp, drop-lottery sequence) and
// statistics are kept per source shard, so concurrent windows never touch
// shared maps. Deliveries whose destination core lives on another shard
// are handed to the shard coordinator; the effective inter-node latency
// every such message carries is at least the coordinator's conservative
// lookahead (validated at construction).
type Network struct {
	mach *machine.Machine
	sh   *sim.Shards
	cfg  Config

	// linkLat/linkBW are the effective per-link parameters,
	// [srcNode][dstNode], precomputed so the send hot path is two array
	// loads regardless of overrides and stragglers.
	linkLat [][]float64
	linkBW  [][]float64

	nicFree []sim.Time // per node: earliest time its NIC can start a new transfer
	// pairs serializes state per (src,dst) core pair: the in-order
	// delivery clamp and the drop lottery's attempt sequence. One table
	// per source shard: the pair key starts at the source core, so a
	// pair's entry is only ever touched by the shard sending on it.
	pairs []pairTable

	// Stats, per source shard.
	messages    []uint64
	bytesMoved  []uint64
	drops       []uint64
	retransmits []uint64

	// linkBusy is NIC-occupied seconds (per-attempt serialization), per
	// source NODE — not per shard. A node never splits across shards, so
	// each entry has a single writer, and the additions into it happen in
	// the node's own event order at any shard count; per-shard buckets
	// would instead regroup the floats whenever the shard count changed
	// and drift the published sum by ulps.
	linkBusy []float64

	// Telemetry handles (nil-safe no-ops until SetMetrics). Drops and
	// retransmits are integer counters, so concurrent shard updates
	// commute exactly; link busy time is floating point and published
	// from PublishMetrics in shard order instead, so the exported value
	// never depends on window interleaving.
	metDrops       *metrics.Counter
	metRetransmits *metrics.Counter
	metLinkBusy    *metrics.FloatCounter
	busyPublished  float64

	// Job tracing (nil-safe; see SetObs).
	obs    *obs.Trace
	obsTID int
}

// pairState is one (src,dst) core pair's serialization state.
type pairState struct {
	last sim.Time // latest arrival scheduled on this pair (in-order clamp)
	seq  uint64   // transmission attempts rolled in the drop lottery
}

// pairTable holds one shard's pair states densely, in first-use order,
// with an integer-keyed index: Send hashes its pair once and then works
// on the entry in place. Only pairs that carry traffic get an entry, so
// the table stays proportional to the communication graph, not to the
// square of the core count.
type pairTable struct {
	index map[uint64]int32
	state []pairState
}

// get returns the state of the pair (src, dst), adding it on first use.
func (t *pairTable) get(src, dst int) *pairState {
	key := uint64(src)<<32 | uint64(uint32(dst))
	i, ok := t.index[key]
	if !ok {
		i = int32(len(t.state))
		t.state = append(t.state, pairState{})
		t.index[key] = i
	}
	return &t.state[i]
}

// New creates a network over the machine's cores. It validates the
// conservative-lookahead invariant: the scheduler's lookahead must not
// exceed the minimum effective inter-node latency, or retransmitted and
// overridden-link deliveries could land inside another shard's window.
func New(mach *machine.Machine, cfg Config) *Network {
	cfg.validate(mach.NumNodes())
	sh := mach.Shards()
	shards := sh.NumShards()
	if mach.NumNodes() > 1 {
		if mn := cfg.MinInterNodeLatency(mach.NumNodes()); float64(sh.Lookahead()) > mn {
			panic(fmt.Sprintf(
				"xnet: shard lookahead %v exceeds the minimum effective inter-node latency %v; derive the lookahead from this network's resolved Config (Config.MinInterNodeLatency), not from a second copy of the defaults",
				sh.Lookahead(), mn))
		}
	}
	nodes := mach.NumNodes()
	n := &Network{
		mach:        mach,
		sh:          sh,
		cfg:         cfg,
		linkLat:     make([][]float64, nodes),
		linkBW:      make([][]float64, nodes),
		nicFree:     make([]sim.Time, nodes),
		pairs:       make([]pairTable, shards),
		messages:    make([]uint64, shards),
		bytesMoved:  make([]uint64, shards),
		drops:       make([]uint64, shards),
		retransmits: make([]uint64, shards),
		linkBusy:    make([]float64, nodes),
	}
	for s := 0; s < nodes; s++ {
		n.linkLat[s] = make([]float64, nodes)
		n.linkBW[s] = make([]float64, nodes)
		for d := 0; d < nodes; d++ {
			if s == d {
				continue
			}
			n.linkLat[s][d], n.linkBW[s][d] = cfg.EffectiveLink(s, d)
			if n.linkBW[s][d] <= 0 {
				panic(fmt.Sprintf("xnet: effective bandwidth on link %d->%d is not positive", s, d))
			}
		}
	}
	for i := range n.pairs {
		n.pairs[i].index = make(map[uint64]int32)
	}
	return n
}

// Config returns the link parameters.
func (n *Network) Config() Config { return n.cfg }

// Machine returns the cluster the network connects.
func (n *Network) Machine() *machine.Machine { return n.mach }

// SetMetrics registers the network's telemetry series on reg: drop and
// retransmit counters (updated inline) and the NIC busy-time accumulator
// (published by PublishMetrics). Passing nil is a no-op.
func (n *Network) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	n.metDrops = reg.Counter("xnet_drops_total",
		"Inter-node transmissions lost to the seeded packet-drop lottery.")
	n.metRetransmits = reg.Counter("xnet_retransmits_total",
		"Retransmissions sent after a drop's timeout expired.")
	n.metLinkBusy = reg.FloatCounter("xnet_link_busy_seconds",
		"Virtual seconds node NICs spent serializing inter-node transmissions, retransmitted attempts included.")
}

// SetObs attaches a job trace: a message whose drop lottery costs at least
// the trace's retransmit-burst threshold in attempts records an instant
// event (and, through the trace's anomaly thresholds, a WARN log line).
// Nil receiver and nil trace are no-ops, so the call can be wired
// unconditionally; with DropPct 0 the path never fires.
func (n *Network) SetObs(tr *obs.Trace, tid int) {
	if n == nil || tr == nil {
		return
	}
	n.obs = tr
	n.obsTID = tid
}

// PublishMetrics flushes the NIC busy-time accumulated since the last
// call into xnet_link_busy_seconds. Coordinator context only: it folds
// the per-node accumulators with a fixed-shape pairwise reduction, so
// the exported float is bit-identical at any shard or worker count (and
// keeps rounding error O(log n) across large node counts).
func (n *Network) PublishMetrics() {
	if n.metLinkBusy == nil {
		return
	}
	total := pairwiseSum(n.linkBusy)
	n.metLinkBusy.Add(total - n.busyPublished)
	n.busyPublished = total
}

// pairwiseSum reduces vs by recursive halving — a summation tree whose
// shape depends only on len(vs), never on how the values were produced.
func pairwiseSum(vs []float64) float64 {
	switch len(vs) {
	case 0:
		return 0
	case 1:
		return vs[0]
	}
	mid := len(vs) / 2
	return pairwiseSum(vs[:mid]) + pairwiseSum(vs[mid:])
}

func sumU64(vs []uint64) uint64 {
	var total uint64
	for _, v := range vs {
		total += v
	}
	return total
}

// Messages reports the number of messages sent so far. Coordinator
// context only when sharded (it sums per-shard counts).
func (n *Network) Messages() uint64 { return sumU64(n.messages) }

// BytesMoved reports the total payload bytes sent so far. Coordinator
// context only when sharded.
func (n *Network) BytesMoved() uint64 { return sumU64(n.bytesMoved) }

// Drops reports the transmissions lost so far. Coordinator context only
// when sharded.
func (n *Network) Drops() uint64 { return sumU64(n.drops) }

// Retransmits reports the retransmissions sent so far. Coordinator
// context only when sharded.
func (n *Network) Retransmits() uint64 { return sumU64(n.retransmits) }

// dropRoll hashes one transmission attempt into [0,100). A pure function
// of (seed, src, dst, seq): the lottery never depends on event
// interleaving, only on how many attempts this pair rolled before.
func dropRoll(seed int64, srcCore, dstCore int, seq uint64) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^
		uint64(srcCore+1)*0xBF58476D1CE4E5B9 ^
		uint64(dstCore+1)*0x94D049BB133111EB ^
		seq*0xD6E8FEB86659FD93
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) * (100.0 / (1 << 53))
}

// Send schedules delivery of a message of the given payload size from
// srcCore to dstCore and invokes deliver at the arrival instant.
// It returns the arrival time.
//
// Inter-node transmissions pass the drop lottery: a lost attempt is
// retransmitted RetransmitTimeout after its serialization ended (the
// timeout doubling per loss), each attempt re-queuing on the source NIC,
// until an attempt survives or MaxAttempts is reached — the final attempt
// always delivers. With DropPct 0 the path is exactly the reliable
// baseline: one attempt, no lottery, no extra state.
func (n *Network) Send(srcCore, dstCore, bytes int, deliver func()) sim.Time {
	if bytes < 0 {
		panic(fmt.Sprintf("xnet: negative message size %d", bytes))
	}
	srcEng := n.mach.EngineFor(srcCore)
	now := srcEng.Now()
	srcNode := n.mach.NodeOf(srcCore)
	dstNode := n.mach.NodeOf(dstCore)
	srcShard := n.mach.ShardOf(srcCore)

	ps := n.pairs[srcShard].get(srcCore, dstCore)

	var arrival sim.Time
	if srcNode == dstNode {
		xfer := sim.Time(float64(bytes) / n.cfg.IntraNodeBandwidth)
		arrival = now + sim.Time(n.cfg.IntraNodeLatency) + xfer
	} else {
		lat := sim.Time(n.linkLat[srcNode][dstNode])
		xfer := sim.Time(float64(bytes) / n.linkBW[srcNode][dstNode])
		start := now
		if n.nicFree[srcNode] > start {
			start = n.nicFree[srcNode]
		}
		n.nicFree[srcNode] = start + xfer
		n.linkBusy[srcNode] += float64(xfer)
		if n.cfg.DropPct > 0 {
			rto := sim.Time(n.cfg.RetransmitTimeout)
			retries := 0
			for attempt := 1; attempt < n.cfg.MaxAttempts; attempt++ {
				lost := dropRoll(n.cfg.Seed, srcCore, dstCore, ps.seq) < n.cfg.DropPct
				ps.seq++
				if !lost {
					break
				}
				retries++
				n.drops[srcShard]++
				n.retransmits[srcShard]++
				n.metDrops.Inc()
				n.metRetransmits.Inc()
				resend := start + xfer + rto
				rto *= 2
				if n.nicFree[srcNode] > resend {
					resend = n.nicFree[srcNode]
				}
				start = resend
				n.nicFree[srcNode] = start + xfer
				n.linkBusy[srcNode] += float64(xfer)
			}
			if n.obs != nil && retries >= n.obs.Thresholds().RetransmitBurst {
				n.obs.Instant(obs.CatNet, "retransmit-burst", n.obsTID,
					"retransmits", retries, "src_node", srcNode, "dst_node", dstNode,
					"virtual_t", float64(now))
			}
		}
		arrival = start + xfer + lat
	}

	if arrival < ps.last {
		arrival = ps.last
	}
	ps.last = arrival

	n.messages[srcShard]++
	n.bytesMoved[srcShard] += uint64(bytes)
	// Shards never split a node, so only an inter-node delivery can cross
	// shards, and then arrival >= now + effective latency >= now +
	// lookahead: the coordinator's conservative window holds for every
	// cross-shard delivery, retransmitted ones included (they only arrive
	// later).
	if srcNode != dstNode {
		if dstShard := n.mach.ShardOf(dstCore); dstShard != srcShard {
			n.sh.Cross(srcShard, dstShard, arrival, deliver)
			return arrival
		}
	}
	srcEng.At(arrival, deliver)
	return arrival
}
