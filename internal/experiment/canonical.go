package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"cloudlb/internal/elastic"
	"cloudlb/internal/xnet"
)

// SpecSchemaVersion is the version stamped into every canonical Spec
// encoding (the "v" field). Bump it whenever the canonical field set, a
// default, or a normalization rule changes: the version is hashed, so a
// bump invalidates every content-addressed cache entry instead of
// silently serving results computed under the old semantics.
const SpecSchemaVersion = 1

// ParseAppKind maps a command-line or wire name to an application.
func ParseAppKind(name string) (AppKind, error) {
	switch strings.ToLower(name) {
	case "none":
		return AppNone, nil
	case "jacobi2d":
		return Jacobi2D, nil
	case "wave2d":
		return Wave2D, nil
	case "mol3d":
		return Mol3D, nil
	}
	return 0, fmt.Errorf("experiment: unknown app %q", name)
}

// ParseStrategyKind maps a command-line or wire name to a balancer. Both
// the short CLI names ("refine") and the String() names ("RefineLB") are
// accepted, case-insensitively.
func ParseStrategyKind(name string) (StrategyKind, error) {
	switch strings.ToLower(name) {
	case "none", "nolb":
		return NoLB, nil
	case "refine", "refinelb":
		return Refine, nil
	case "refineinternal", "refineinternallb":
		return RefineInternal, nil
	case "refineswap", "refineswaplb":
		return RefineSwap, nil
	case "greedy", "greedylb":
		return Greedy, nil
	case "threshold", "thresholdlb":
		return Threshold, nil
	case "costaware", "migrationcostawarelb":
		return CostAware, nil
	case "diffusion", "diffusionlb":
		return Diffusion, nil
	}
	return 0, fmt.Errorf("experiment: unknown strategy %q", name)
}

func (b BGKind) String() string {
	switch b {
	case BGNone:
		return "none"
	case BGWave2D:
		return "wave2d"
	case BGCloudChurn:
		return "churn"
	}
	return "unknown"
}

// ParseBGKind maps a wire name to an interference configuration.
func ParseBGKind(name string) (BGKind, error) {
	switch strings.ToLower(name) {
	case "none", "":
		return BGNone, nil
	case "wave2d", "bg":
		return BGWave2D, nil
	case "churn":
		return BGCloudChurn, nil
	}
	return 0, fmt.Errorf("experiment: unknown background kind %q", name)
}

// MarshalJSON encodes the application by name ("Wave2D"), the form the
// canonical Spec encoding and the service submit API use.
func (a AppKind) MarshalJSON() ([]byte, error) { return json.Marshal(a.String()) }

// UnmarshalJSON accepts the String() names, case-insensitively.
func (a *AppKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("experiment: app must be a string name: %w", err)
	}
	k, err := ParseAppKind(s)
	if err != nil {
		return err
	}
	*a = k
	return nil
}

// MarshalJSON encodes the balancer by name ("RefineLB").
func (s StrategyKind) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts both the String() names and the short CLI names.
func (s *StrategyKind) UnmarshalJSON(data []byte) error {
	var v string
	if err := json.Unmarshal(data, &v); err != nil {
		return fmt.Errorf("experiment: strategy must be a string name: %w", err)
	}
	k, err := ParseStrategyKind(v)
	if err != nil {
		return err
	}
	*s = k
	return nil
}

// MarshalJSON encodes the interference kind by name ("wave2d").
func (b BGKind) MarshalJSON() ([]byte, error) { return json.Marshal(b.String()) }

// UnmarshalJSON accepts the String() names.
func (b *BGKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("experiment: bg must be a string name: %w", err)
	}
	k, err := ParseBGKind(s)
	if err != nil {
		return err
	}
	*b = k
	return nil
}

// ParseSpec decodes a Spec from its JSON wire form (the same shape
// CanonicalJSON emits), rejecting unknown fields so a typo in a submitted
// document fails loudly instead of silently running the defaults.
func ParseSpec(data []byte) (Spec, error) {
	// The optional "v" field carries the canonical schema version, so a
	// stored canonical document is itself a valid submission.
	var doc struct {
		V int `json:"v,omitempty"`
		Spec
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return Spec{}, fmt.Errorf("experiment: bad spec document: %w", err)
	}
	if doc.V != 0 && doc.V != SpecSchemaVersion {
		return Spec{}, fmt.Errorf("experiment: spec schema version %d not supported (this build speaks v%d)", doc.V, SpecSchemaVersion)
	}
	return doc.Spec, nil
}

// Canonical workload defaults: the value each zero Spec knob resolves to
// at run time (see Scenario and the workload constants). Spec.normalized
// resolves a knob to its effective value and CanonicalJSON elides it when
// it equals the default, so Spec{} and Spec{SyncEvery: 10} — which run
// identically — also hash identically.
const (
	defaultSyncEvery      = syncEvery
	defaultCharesPerCore  = charesPerCore
	defaultStencilBlock   = stencilBlock
	defaultBGIters        = bgIters
	defaultEpsilonFrac    = 0.02
	defaultDiffRounds     = 16
	defaultDiffTol        = 0.05
	defaultMaxVirtualTime = 10000
)

// canon is a tiny deterministic JSON writer: fields appear exactly in
// emit order, with no reflection and no map iteration anywhere near the
// hash input.
type canon struct {
	buf   bytes.Buffer
	first bool
}

func (c *canon) open()  { c.buf.WriteByte('{'); c.first = true }
func (c *canon) close() { c.buf.WriteByte('}') }

func (c *canon) key(name string) {
	if !c.first {
		c.buf.WriteByte(',')
	}
	c.first = false
	c.buf.WriteByte('"')
	c.buf.WriteString(name) // keys are fixed identifiers, never escaped
	c.buf.WriteString(`":`)
}

func (c *canon) str(name, v string) {
	c.key(name)
	b, _ := json.Marshal(v)
	c.buf.Write(b)
}

func (c *canon) int(name string, v int64) {
	c.key(name)
	c.buf.WriteString(strconv.FormatInt(v, 10))
}

func (c *canon) float(name string, v float64) {
	c.key(name)
	c.writeFloat(v)
}

// writeFloat emits the shortest round-trip decimal form, the same 'g'
// shape encoding/json uses, so canonical documents re-parse to the exact
// Spec that produced them.
func (c *canon) writeFloat(v float64) {
	c.buf.Write(strconv.AppendFloat(nil, v, 'g', -1, 64))
}

func (c *canon) bool(name string, v bool) {
	c.key(name)
	c.buf.WriteString(strconv.FormatBool(v))
}

func (c *canon) ints(name string, vs []int) {
	c.key(name)
	c.buf.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			c.buf.WriteByte(',')
		}
		c.buf.WriteString(strconv.Itoa(v))
	}
	c.buf.WriteByte(']')
}

func (c *canon) int64s(name string, vs []int64) {
	c.key(name)
	c.buf.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			c.buf.WriteByte(',')
		}
		c.buf.WriteString(strconv.FormatInt(v, 10))
	}
	c.buf.WriteByte(']')
}

func (c *canon) floats(name string, vs []float64) {
	c.key(name)
	c.buf.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			c.buf.WriteByte(',')
		}
		c.writeFloat(v)
	}
	c.buf.WriteByte(']')
}

func (c *canon) strs(name string, vs []string) {
	c.key(name)
	c.buf.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			c.buf.WriteByte(',')
		}
		b, _ := json.Marshal(v)
		c.buf.Write(b)
	}
	c.buf.WriteByte(']')
}

// CanonicalJSON is the versioned, deterministic encoding of the Spec —
// the input of Hash and the cache key of the scenario-evaluation service.
// Rules (see DESIGN.md §13):
//
//   - Fields appear in a fixed order, starting with the schema version
//     ("v": SpecSchemaVersion).
//   - Every knob is normalized to its effective runtime value by
//     Spec.normalized, the same function Spec.Run expands (Scale 0 → 1,
//     Seeds [] → [1], SyncEvery 0 → 10, …; a zero Net → the resolved
//     defaults), and elided when it equals the default, so spellings
//     that run identically encode identically.
//   - The revocation schedule is sorted by (At, PE) and straggler node
//     sets are sorted and deduplicated — order-insensitive inputs are
//     order-insensitive in the hash.
//   - Shards is excluded: results are byte-identical at every shard
//     count (make determinism), so the same scenario at -shards 1 and
//     -shards 8 shares one cache entry.
func (sp Spec) CanonicalJSON() []byte {
	sp = sp.normalized()
	c := &canon{}
	c.open()
	c.int("v", SpecSchemaVersion)
	c.str("app", sp.App.String())
	c.ints("cores", sp.Cores)
	if !(len(sp.Strategies) == 1 && sp.Strategies[0] == NoLB) {
		names := make([]string, len(sp.Strategies))
		for i, k := range sp.Strategies {
			names[i] = k.String()
		}
		c.strs("strategies", names)
	}
	if !(len(sp.Seeds) == 1 && sp.Seeds[0] == 1) {
		c.int64s("seeds", sp.Seeds)
	}
	if sp.Scale != 1 {
		c.float("scale", sp.Scale)
	}
	if sp.BG != BGNone {
		c.str("bg", sp.BG.String())
	}
	if sp.BGWeight != 1 {
		c.float("bg_weight", sp.BGWeight)
	}
	if sp.BGIters != defaultBGIters {
		c.int("bg_iters", int64(sp.BGIters))
	}
	if sp.SyncEvery != defaultSyncEvery {
		c.int("sync_every", int64(sp.SyncEvery))
	}
	if sp.CharesPerCore != defaultCharesPerCore {
		c.int("chares_per_core", int64(sp.CharesPerCore))
	}
	if sp.StencilBlock != defaultStencilBlock {
		c.int("stencil_block", int64(sp.StencilBlock))
	}
	if sp.EpsilonFrac != defaultEpsilonFrac {
		c.float("epsilon_frac", sp.EpsilonFrac)
	}
	if sp.DiffRounds != defaultDiffRounds {
		c.int("diff_rounds", int64(sp.DiffRounds))
	}
	if sp.DiffTol != defaultDiffTol {
		c.float("diff_tol", sp.DiffTol)
	}
	if sp.InteractivityBonus != 0 {
		c.float("interactivity_bonus", sp.InteractivityBonus)
	}
	if sp.Hierarchical {
		c.bool("hierarchical", true)
	}
	if len(sp.Faults) > 0 {
		c.key("faults")
		c.buf.WriteByte('[')
		for i, r := range sortedSchedule(sp.Faults) {
			if i > 0 {
				c.buf.WriteByte(',')
			}
			rc := &canon{buf: c.buf}
			rc.open()
			rc.int("pe", int64(r.PE))
			rc.float("at", float64(r.At))
			if r.Warning != 0 {
				rc.float("warning", float64(r.Warning))
			}
			if r.Restore != 0 {
				rc.float("restore", float64(r.Restore))
			}
			if r.ReplacementCore != 0 {
				rc.int("replacement_core", int64(r.ReplacementCore))
			}
			rc.close()
			c.buf = rc.buf
		}
		c.buf.WriteByte(']')
	}
	if sp.MaxVirtualTime != defaultMaxVirtualTime {
		c.float("max_virtual_time", float64(sp.MaxVirtualTime))
	}
	writeCanonicalNet(c, sp.Net)
	if len(sp.EpsFracs) > 0 {
		c.floats("eps_fracs", sp.EpsFracs)
	}
	if len(sp.Periods) > 0 {
		c.ints("periods", sp.Periods)
	}
	if len(sp.DropPcts) > 0 {
		c.floats("drop_pcts", sp.DropPcts)
	}
	if len(sp.StraggleFactors) > 0 {
		c.floats("straggle_factors", sp.StraggleFactors)
	}
	c.close()
	return c.buf.Bytes()
}

// Hash is the canonical scenario hash: the hex SHA-256 of CanonicalJSON.
// Two Specs share a hash exactly when they describe the same simulation,
// regardless of field spelling, zero-value elision or shard count — the
// content-address the service's result cache is keyed by.
func (sp Spec) Hash() string {
	sum := sha256.Sum256(sp.CanonicalJSON())
	return hex.EncodeToString(sum[:])
}

func normInt(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

func normFloat(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	return v
}

// sortedSchedule orders revocations by (At, PE) without mutating the
// input: the schedule is a set of timed events, so its declaration order
// must not leak into the hash.
func sortedSchedule(s elastic.Schedule) elastic.Schedule {
	out := append(elastic.Schedule(nil), s...)
	slices.SortStableFunc(out, func(a, b elastic.Revocation) int {
		if a.At != b.At {
			if a.At < b.At {
				return -1
			}
			return 1
		}
		return a.PE - b.PE
	})
	return out
}

// writeCanonicalNet emits the resolved network config when it differs
// from the resolved zero config (the uniform reliable default). Emitting
// the resolved form — not the sparse input — keeps the documented
// invariant that a zero Config and an explicit DefaultConfig() are the
// same scenario.
func writeCanonicalNet(c *canon, cfg xnet.Config) {
	r := cfg.Resolved()
	d := xnet.Config{}.Resolved()
	if equalNet(r, d) {
		return
	}
	c.key("net")
	nc := &canon{buf: c.buf}
	nc.open()
	if r.IntraNodeLatency != d.IntraNodeLatency {
		nc.float("intra_node_latency", r.IntraNodeLatency)
	}
	if r.IntraNodeBandwidth != d.IntraNodeBandwidth {
		nc.float("intra_node_bandwidth", r.IntraNodeBandwidth)
	}
	if r.InterNodeLatency != d.InterNodeLatency {
		nc.float("inter_node_latency", r.InterNodeLatency)
	}
	if r.InterNodeBandwidth != d.InterNodeBandwidth {
		nc.float("inter_node_bandwidth", r.InterNodeBandwidth)
	}
	if len(r.Links) > 0 {
		// Link order is semantic (last match wins), so it is preserved.
		nc.key("links")
		nc.buf.WriteByte('[')
		for i, l := range r.Links {
			if i > 0 {
				nc.buf.WriteByte(',')
			}
			lc := &canon{buf: nc.buf}
			lc.open()
			lc.int("src", int64(l.Src))
			lc.int("dst", int64(l.Dst))
			if l.Latency != 0 {
				lc.float("latency", l.Latency)
			}
			if l.Bandwidth != 0 {
				lc.float("bandwidth", l.Bandwidth)
			}
			lc.close()
			nc.buf = lc.buf
		}
		nc.buf.WriteByte(']')
	}
	if nodes := canonicalStragglers(r); len(nodes) > 0 && r.StragglerFactor != 1 {
		nc.ints("straggler_nodes", nodes)
		nc.float("straggler_factor", r.StragglerFactor)
	}
	if r.DropPct != 0 {
		nc.float("drop_pct", r.DropPct)
	}
	if r.Seed != 0 {
		nc.int("seed", r.Seed)
	}
	if r.RetransmitTimeout != d.RetransmitTimeout {
		nc.float("retransmit_timeout", r.RetransmitTimeout)
	}
	if r.MaxAttempts != d.MaxAttempts {
		nc.int("max_attempts", int64(r.MaxAttempts))
	}
	nc.close()
	c.buf = nc.buf
}

// canonicalStragglers sorts and deduplicates the straggler node set — it
// is a set, so {1,3} and {3,1,1} are the same network.
func canonicalStragglers(cfg xnet.Config) []int {
	if len(cfg.StragglerNodes) == 0 {
		return nil
	}
	nodes := append([]int(nil), cfg.StragglerNodes...)
	slices.Sort(nodes)
	return slices.Compact(nodes)
}

// equalNet compares two resolved configs field by field (slices included).
func equalNet(a, b xnet.Config) bool {
	if a.IntraNodeLatency != b.IntraNodeLatency ||
		a.IntraNodeBandwidth != b.IntraNodeBandwidth ||
		a.InterNodeLatency != b.InterNodeLatency ||
		a.InterNodeBandwidth != b.InterNodeBandwidth ||
		a.DropPct != b.DropPct || a.Seed != b.Seed ||
		a.RetransmitTimeout != b.RetransmitTimeout ||
		a.MaxAttempts != b.MaxAttempts {
		return false
	}
	if !slices.Equal(a.Links, b.Links) {
		return false
	}
	aStraggles := a.StragglerFactor != 1 && len(a.StragglerNodes) > 0
	bStraggles := b.StragglerFactor != 1 && len(b.StragglerNodes) > 0
	if aStraggles != bStraggles {
		return false
	}
	if !aStraggles {
		return true
	}
	return a.StragglerFactor == b.StragglerFactor &&
		slices.Equal(canonicalStragglers(a), canonicalStragglers(b))
}
