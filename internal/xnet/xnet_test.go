package xnet

import (
	"math"
	"math/rand"
	"testing"

	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
)

const tol = 1e-9

func testNet(t *testing.T, cfg Config) (*sim.Engine, *Network) {
	t.Helper()
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := machine.New(sh, machine.Config{Nodes: 2, CoresPerNode: 2, CoreSpeed: 1})
	return eng, New(m, cfg)
}

func TestIntraNodeDelivery(t *testing.T) {
	cfg := Config{IntraNodeLatency: 1e-3, IntraNodeBandwidth: 1e6, InterNodeLatency: 1, InterNodeBandwidth: 1}
	eng, n := testNet(t, cfg)
	var at sim.Time
	arr := n.Send(0, 1, 1000, func() { at = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(1e-3 + 1000/1e6)
	if math.Abs(float64(at-want)) > tol || math.Abs(float64(arr-want)) > tol {
		t.Fatalf("intra-node arrival %v (reported %v), want %v", at, arr, want)
	}
}

func TestInterNodeDelivery(t *testing.T) {
	cfg := Config{IntraNodeLatency: 0, IntraNodeBandwidth: 1, InterNodeLatency: 1e-3, InterNodeBandwidth: 1e6}
	eng, n := testNet(t, cfg)
	var at sim.Time
	n.Send(0, 2, 500, func() { at = eng.Now() }) // cores 0 and 2 are on different nodes
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(500/1e6 + 1e-3)
	if math.Abs(float64(at-want)) > tol {
		t.Fatalf("inter-node arrival %v, want %v", at, want)
	}
}

func TestNICSerializesInterNodeSends(t *testing.T) {
	cfg := Config{InterNodeLatency: 0.01, InterNodeBandwidth: 1000, IntraNodeLatency: 0, IntraNodeBandwidth: 1}
	eng, n := testNet(t, cfg)
	var a1, a2 sim.Time
	n.Send(0, 2, 1000, func() { a1 = eng.Now() }) // 1s transfer
	n.Send(0, 3, 1000, func() { a2 = eng.Now() }) // queued behind the first
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(a1-1.01)) > tol {
		t.Fatalf("first arrival %v, want 1.01", a1)
	}
	if math.Abs(float64(a2-2.01)) > tol {
		t.Fatalf("second arrival %v, want 2.01 (NIC-serialized)", a2)
	}
}

func TestIntraNodeDoesNotOccupyNIC(t *testing.T) {
	cfg := Config{InterNodeLatency: 0, InterNodeBandwidth: 1000, IntraNodeLatency: 0, IntraNodeBandwidth: 1e9}
	eng, n := testNet(t, cfg)
	var inter sim.Time
	n.Send(0, 1, 1<<20, func() {}) // big intra-node copy
	n.Send(0, 2, 1000, func() { inter = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(inter-1.0)) > tol {
		t.Fatalf("inter-node send delayed by intra-node copy: %v", inter)
	}
}

func TestInOrderDeliveryPerPair(t *testing.T) {
	// A big slow message followed by a small fast one between the same
	// pair must not be overtaken.
	cfg := Config{InterNodeLatency: 0.5, InterNodeBandwidth: 1000, IntraNodeLatency: 0, IntraNodeBandwidth: 1}
	eng, n := testNet(t, cfg)
	var order []int
	n.Send(0, 2, 2000, func() { order = append(order, 1) })
	n.Send(0, 2, 1, func() { order = append(order, 2) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order %v, want [1 2]", order)
	}
}

func TestStatsCount(t *testing.T) {
	eng, n := testNet(t, DefaultConfig())
	n.Send(0, 1, 100, func() {})
	n.Send(0, 2, 200, func() {})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Messages() != 2 || n.BytesMoved() != 300 {
		t.Fatalf("stats %d msgs %d bytes, want 2/300", n.Messages(), n.BytesMoved())
	}
}

func TestNegativeSizePanics(t *testing.T) {
	_, n := testNet(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	n.Send(0, 1, -1, func() {})
}

func TestInvalidConfigPanics(t *testing.T) {
	m := machine.New(sim.NewShards(1, 0), machine.Config{Nodes: 1, CoresPerNode: 1, CoreSpeed: 1})
	bad := []Config{
		{IntraNodeBandwidth: 0, InterNodeBandwidth: 1},
		{IntraNodeBandwidth: 1, InterNodeBandwidth: 0},
		{IntraNodeBandwidth: 1, InterNodeBandwidth: 1, IntraNodeLatency: -1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			New(m, cfg)
		}()
	}
}

func TestArrivalNeverBeforeSend(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	eng, n := testNet(t, DefaultConfig())
	for i := 0; i < 200; i++ {
		src := rng.Intn(4)
		dst := rng.Intn(4)
		at := sim.Time(rng.Float64() * 10)
		eng.At(at, func() {
			sent := eng.Now()
			n.Send(src, dst, rng.Intn(1<<16), func() {
				if eng.Now() < sent {
					t.Errorf("message delivered at %v before send at %v", eng.Now(), sent)
				}
			})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResolvedFillsDefaults(t *testing.T) {
	r := Config{}.Resolved()
	d := DefaultConfig()
	if r.IntraNodeLatency != d.IntraNodeLatency || r.InterNodeLatency != d.InterNodeLatency ||
		r.IntraNodeBandwidth != d.IntraNodeBandwidth || r.InterNodeBandwidth != d.InterNodeBandwidth ||
		r.StragglerFactor != 1 || r.MaxAttempts != d.MaxAttempts || r.RetransmitTimeout != d.RetransmitTimeout {
		t.Fatalf("zero config resolved to %+v, want DefaultConfig %+v", r, d)
	}
	// A custom latency keeps its value and rescales the default timeout.
	c := Config{InterNodeLatency: 1e-3}.Resolved()
	if c.InterNodeLatency != 1e-3 {
		t.Fatalf("custom latency overwritten: %v", c.InterNodeLatency)
	}
	if math.Abs(c.RetransmitTimeout-4e-3) > tol {
		t.Fatalf("default RTO %v, want 4x latency = 4e-3", c.RetransmitTimeout)
	}
	if !(Config{}).IsZero() {
		t.Fatal("zero config not IsZero")
	}
	if (Config{DropPct: 1}).IsZero() || r.IsZero() {
		t.Fatal("non-zero config reported IsZero")
	}
}

func TestEffectiveLinkOverrides(t *testing.T) {
	c := Config{
		InterNodeLatency: 1e-3, InterNodeBandwidth: 1e6,
		Links: []Link{
			{Src: 0, Dst: 1, Latency: 5e-3},                 // latency only; bandwidth inherited
			{Src: 1, Dst: 0, Bandwidth: 2e6},                // bandwidth only
			{Src: 0, Dst: 2, Latency: 9e-3, Bandwidth: 1e3}, // both, then overridden below
			{Src: 0, Dst: 2, Latency: 2e-3},                 // last match wins, bandwidth re-inherited? no: zero inherits base
		},
		StragglerNodes: []int{3}, StragglerFactor: 4,
	}
	check := func(s, d int, wlat, wbw float64) {
		t.Helper()
		lat, bw := c.EffectiveLink(s, d)
		if math.Abs(lat-wlat) > tol || math.Abs(bw-wbw) > 1e-3 {
			t.Errorf("link %d->%d = (%v, %v), want (%v, %v)", s, d, lat, bw, wlat, wbw)
		}
	}
	check(0, 1, 5e-3, 1e6)   // latency override, base bandwidth
	check(1, 0, 1e-3, 2e6)   // bandwidth override, base latency
	check(0, 2, 2e-3, 1e3)   // later entry overrides latency, earlier bandwidth sticks
	check(2, 1, 1e-3, 1e6)   // untouched pair: base values
	check(0, 3, 4e-3, 2.5e5) // straggler destination: lat x4, bw /4
	check(3, 0, 4e-3, 2.5e5) // straggler source: symmetric
}

func TestMinInterNodeLatency(t *testing.T) {
	c := Config{
		InterNodeLatency: 1e-3, InterNodeBandwidth: 1e6,
		Links:          []Link{{Src: 0, Dst: 1, Latency: 2e-4}},
		StragglerNodes: []int{2}, StragglerFactor: 8,
	}
	if got := c.MinInterNodeLatency(4); math.Abs(got-2e-4) > tol {
		t.Fatalf("min latency %v, want the 0->1 override 2e-4", got)
	}
	// Stragglers only slow links down, so they never set the minimum.
	if got := (Config{InterNodeLatency: 1e-3, StragglerNodes: []int{0}, StragglerFactor: 8}).MinInterNodeLatency(4); math.Abs(got-1e-3) > tol {
		t.Fatalf("min latency %v, want base 1e-3", got)
	}
}

func TestStragglerSlowsBothDirections(t *testing.T) {
	cfg := Config{
		IntraNodeLatency: 0, IntraNodeBandwidth: 1,
		InterNodeLatency: 0.01, InterNodeBandwidth: 1000,
		StragglerNodes: []int{1}, StragglerFactor: 4,
	}
	eng, n := testNet(t, cfg)
	var to, from sim.Time
	n.Send(0, 2, 1000, func() { to = eng.Now() })   // node 0 -> straggler node 1
	n.Send(2, 0, 1000, func() { from = eng.Now() }) // straggler node 1 -> node 0
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(1000/250.0 + 0.04) // bw/4, lat x4
	if math.Abs(float64(to-want)) > tol || math.Abs(float64(from-want)) > tol {
		t.Fatalf("straggler arrivals %v / %v, want both %v", to, from, want)
	}
}

// TestSeededDropsRetransmitTiming pins the retransmit schedule: with
// MaxAttempts 2 every message arrives either on time (attempt survived)
// or exactly one RTO + serialization later (one loss, final attempt
// delivers), and the loss count matches the Drops counter.
func TestSeededDropsRetransmitTiming(t *testing.T) {
	cfg := Config{
		IntraNodeLatency: 0, IntraNodeBandwidth: 1,
		InterNodeLatency: 0.01, InterNodeBandwidth: 1000, // 1000-byte msg = 1s transfer
		DropPct: 50, Seed: 11, RetransmitTimeout: 0.1, MaxAttempts: 2,
	}
	const (
		clean = 1.01 // xfer + lat
		retry = 2.11 // xfer + rto + xfer + lat
	)
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := machine.New(sh, machine.Config{Nodes: 8, CoresPerNode: 1, CoreSpeed: 1})
	n := New(m, cfg)
	var late int
	const msgs = 64
	for i := 0; i < msgs; i++ {
		src, dst := i%8, (i+1)%8 // distinct pairs so NIC queues stay empty
		eng.At(sim.Time(i)*10, func() {
			sent := eng.Now()
			n.Send(src, dst, 1000, func() {
				d := float64(eng.Now() - sent)
				switch {
				case math.Abs(d-clean) <= tol:
				case math.Abs(d-retry) <= tol:
					late++
				default:
					t.Errorf("arrival delay %v, want %v or %v", d, clean, retry)
				}
			})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if late == 0 || late == msgs {
		t.Fatalf("%d/%d retransmitted; DropPct 50 should lose some but not all", late, msgs)
	}
	if n.Drops() != uint64(late) || n.Retransmits() != uint64(late) {
		t.Fatalf("counters drops=%d retransmits=%d, want both %d", n.Drops(), n.Retransmits(), late)
	}
}

// TestDropLotteryDeterministic replays the same seeded run twice and a
// different seed once: identical seeds must lose identical transmissions.
func TestDropLotteryDeterministic(t *testing.T) {
	run := func(seed int64) []sim.Time {
		cfg := Config{
			IntraNodeLatency: 1e-6, IntraNodeBandwidth: 1e9,
			InterNodeLatency: 1e-3, InterNodeBandwidth: 1e6,
			DropPct: 30, Seed: seed, RetransmitTimeout: 5e-3, MaxAttempts: 5,
		}
		eng, n := testNet(t, cfg)
		var arrivals []sim.Time
		for i := 0; i < 50; i++ {
			n.Send(i%2, 2+i%2, 100+i, func() { arrivals = append(arrivals, eng.Now()) })
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return arrivals
	}
	a, b, c := run(42), run(42), run(43)
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("delivery counts diverged: %d/%d/%d", len(a), len(b), len(c))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at message %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrival schedules")
	}
}

// TestInOrderDeliveryUnderDrops asserts the per-pair order guarantee
// survives retransmits: a retransmitted message must not be overtaken by
// a later clean one.
func TestInOrderDeliveryUnderDrops(t *testing.T) {
	cfg := Config{
		IntraNodeLatency: 1e-6, IntraNodeBandwidth: 1e9,
		InterNodeLatency: 1e-3, InterNodeBandwidth: 1e6,
		DropPct: 60, Seed: 7, RetransmitTimeout: 10e-3, MaxAttempts: 6,
	}
	eng, n := testNet(t, cfg)
	var got []int
	const msgs = 100
	for i := 0; i < msgs; i++ {
		i := i
		n.Send(0, 2, 200, func() { got = append(got, i) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != msgs {
		t.Fatalf("delivered %d/%d messages; the final attempt must always deliver", len(got), msgs)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delivery at %d: got message %d", i, v)
		}
	}
	if n.Drops() == 0 {
		t.Fatal("DropPct 60 lost nothing; lottery not engaged")
	}
}

func TestIntraNodeNeverDrops(t *testing.T) {
	cfg := Config{
		IntraNodeLatency: 1e-6, IntraNodeBandwidth: 1e9,
		InterNodeLatency: 1e-3, InterNodeBandwidth: 1e6,
		DropPct: 99, Seed: 1, RetransmitTimeout: 1e-3, MaxAttempts: 2,
	}
	eng, n := testNet(t, cfg)
	delivered := 0
	for i := 0; i < 50; i++ {
		n.Send(0, 1, 100, func() { delivered++ })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 50 || n.Drops() != 0 {
		t.Fatalf("intra-node: delivered %d, drops %d; want 50 and 0", delivered, n.Drops())
	}
}

func TestLossyConfigValidation(t *testing.T) {
	m := machine.New(sim.NewShards(1, 0), machine.Config{Nodes: 2, CoresPerNode: 1, CoreSpeed: 1})
	base := Config{IntraNodeBandwidth: 1, InterNodeBandwidth: 1}
	bad := []Config{}
	for _, mut := range []func(*Config){
		func(c *Config) { c.DropPct = -1 },
		func(c *Config) { c.DropPct = 100 },
		func(c *Config) { c.DropPct = 10 }, // no RTO / MaxAttempts
		func(c *Config) { c.StragglerNodes = []int{0}; c.StragglerFactor = 0 },
		func(c *Config) { c.StragglerNodes = []int{0}; c.StragglerFactor = math.NaN() },
		func(c *Config) { c.StragglerNodes = []int{0}; c.StragglerFactor = math.Inf(1) },
		func(c *Config) { c.StragglerNodes = []int{2}; c.StragglerFactor = 2 },
		func(c *Config) { c.Links = []Link{{Src: 0, Dst: 2}} },
		func(c *Config) { c.Links = []Link{{Src: 1, Dst: 1}} },
		func(c *Config) { c.Links = []Link{{Src: 0, Dst: 1, Latency: -1}} },
	} {
		c := base
		mut(&c)
		bad = append(bad, c)
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lossy config %d did not panic: %+v", i, cfg)
				}
			}()
			New(m, cfg)
		}()
	}
}

// TestDropPctNonFinite pins the DropPct range check against the values
// that compare false against any bound: NaN and ±Inf must panic at
// construction, not silently disable (or saturate) the drop lottery.
func TestDropPctNonFinite(t *testing.T) {
	m := machine.New(sim.NewShards(1, 0), machine.Config{Nodes: 2, CoresPerNode: 1, CoreSpeed: 1})
	for _, c := range []struct {
		pct float64
		ok  bool
	}{
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{math.Copysign(0, -1), true},
		{0, true},
		{99.9, true},
		{100, false},
	} {
		cfg := Config{DropPct: c.pct}.Resolved()
		func() {
			defer func() {
				if r := recover(); (r == nil) != c.ok {
					t.Errorf("DropPct %v: panic %v, want accepted=%v", c.pct, r, c.ok)
				}
			}()
			New(m, cfg)
		}()
	}
}

// TestLookaheadValidation pins the desync guard: building a Network whose
// minimum effective inter-node latency is below the sharded scheduler's
// lookahead must panic at construction, not corrupt windows at runtime.
func TestLookaheadValidation(t *testing.T) {
	build := func(lookahead sim.Time, cfg Config) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		sh := sim.NewShards(2, lookahead)
		m := machine.New(sh, machine.Config{Nodes: 2, CoresPerNode: 2, CoreSpeed: 1})
		New(m, cfg)
		return false
	}
	lat := DefaultConfig().InterNodeLatency
	if build(sim.Time(lat), DefaultConfig()) {
		t.Fatal("lookahead == min latency must be accepted")
	}
	// A halved link latency under the same lookahead is the exact bug the
	// duplicated DefaultConfig sites could have caused.
	slow := DefaultConfig()
	slow.Links = []Link{{Src: 0, Dst: 1, Latency: lat / 2}}
	if !build(sim.Time(lat), slow) {
		t.Fatal("lookahead > min effective latency must panic")
	}
	if build(sim.Time(lat/2), slow) {
		t.Fatal("reduced lookahead matching the fast link must be accepted")
	}
}

// TestNICSurvivesRevocation pins the elasticity semantics: the NIC
// belongs to the host, not the tenant. Revoking a node's cores neither
// resets nor releases its queue — transfers already serialized complete
// on schedule, and late sends from the revoked node still queue behind
// them in order.
func TestNICSurvivesRevocation(t *testing.T) {
	cfg := Config{InterNodeLatency: 0.01, InterNodeBandwidth: 1000, IntraNodeLatency: 0, IntraNodeBandwidth: 1}
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := machine.New(sh, machine.Config{Nodes: 2, CoresPerNode: 2, CoreSpeed: 1})
	n := New(m, cfg)
	var arrivals []sim.Time
	note := func() { arrivals = append(arrivals, eng.Now()) }
	n.Send(0, 2, 1000, note) // 1s transfer, backlog on node 0's NIC
	n.Send(1, 2, 1000, note) // queued behind it
	eng.At(0.5, func() {
		// Mid-transfer the node loses its cores...
		m.Core(0).SetOffline()
		m.Core(1).SetOffline()
		// ...and a forwarding send routed from it still queues in order.
		n.Send(0, 3, 1000, note)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{1.01, 2.01, 3.01}
	if len(arrivals) != len(want) {
		t.Fatalf("arrivals %v, want %v", arrivals, want)
	}
	for i := range want {
		if math.Abs(float64(arrivals[i]-want[i])) > tol {
			t.Fatalf("arrival %d = %v, want %v (NIC queue must survive revocation)", i, arrivals[i], want[i])
		}
	}
}
