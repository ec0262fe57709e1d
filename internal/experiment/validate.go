package experiment

import (
	"fmt"
	"strings"

	"cloudlb/internal/xnet"
)

// FieldError pins a validation failure to the Spec field that caused it,
// in the wire spelling clients submitted ("cores[1]", "net.drop_pct").
// The service returns these as the HTTP 400 body; the CLI prints them one
// per line.
type FieldError struct {
	Field string `json:"field"`
	Msg   string `json:"msg"`
}

func (e FieldError) Error() string { return e.Field + ": " + e.Msg }

// ValidationError is the collected result of Spec.Validate: every field
// failure at once, so a client fixes a bad document in one round trip.
type ValidationError struct {
	Fields []FieldError `json:"errors"`
}

func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		msgs[i] = f.Error()
	}
	return "experiment: invalid spec: " + strings.Join(msgs, "; ")
}

// Validate checks every Spec field against the preconditions Run and the
// registered methods enforce, returning nil or a *ValidationError listing
// each offending field. It is the single validation gate: the service's
// HTTP 400 path and the CLI flag parsers both call it, so a bad knob
// fails with the same message everywhere instead of panicking
// mid-simulation.
//
// Method-specific shape requirements (one core count for compare,
// baseline-first sweep axes for net, …) are each method's check, added
// by ValidateMethod: Validate accepts any Spec some method can run.
func (sp Spec) Validate() error {
	var errs []FieldError
	add := func(field, format string, args ...any) {
		errs = append(errs, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}

	if sp.App.String() == "unknown" {
		add("app", "unknown application kind %d", int(sp.App))
	}
	if len(sp.Cores) == 0 {
		add("cores", "needs at least one core count")
	}
	for i, c := range sp.Cores {
		if c <= 0 || c%4 != 0 {
			add(fmt.Sprintf("cores[%d]", i), "must be a positive multiple of 4, got %d", c)
		}
	}
	for i, k := range sp.Strategies {
		if k.String() == "unknown" {
			add(fmt.Sprintf("strategies[%d]", i), "unknown strategy kind %d", int(k))
		}
	}
	if sp.BG.String() == "unknown" {
		add("bg", "unknown background kind %d", int(sp.BG))
	}
	if sp.App == AppNone && sp.App.String() != "unknown" && sp.BG != BGWave2D {
		add("app", `"none" requires bg "wave2d" (the background job is the thing being measured)`)
	}
	if sp.Scale < 0 {
		add("scale", "must be >= 0 (0 = default 1), got %v", sp.Scale)
	}
	nonNegative := []struct {
		field string
		v     float64
	}{
		{"bg_weight", sp.BGWeight},
		{"bg_iters", float64(sp.BGIters)},
		{"sync_every", float64(sp.SyncEvery)},
		{"chares_per_core", float64(sp.CharesPerCore)},
		{"stencil_block", float64(sp.StencilBlock)},
		{"epsilon_frac", sp.EpsilonFrac},
		{"diff_rounds", float64(sp.DiffRounds)},
		{"diff_tol", sp.DiffTol},
		{"interactivity_bonus", sp.InteractivityBonus},
		{"max_virtual_time", float64(sp.MaxVirtualTime)},
	}
	for _, n := range nonNegative {
		if n.v < 0 {
			add(n.field, "must be >= 0 (0 = default), got %v", n.v)
		}
	}
	if len(sp.Faults) > 0 {
		if sp.App == AppNone {
			add("faults", "require an application (they revoke its cores)")
		}
		// The schedule must be valid on every allocation it will run on;
		// the smallest core count is the binding constraint for PE range.
		for _, c := range sp.Cores {
			if c <= 0 {
				continue
			}
			if err := sp.Faults.Validate(c); err != nil {
				add("faults", "invalid for %d cores: %v", c, err)
				break
			}
		}
	}
	errs = append(errs, validateNet(sp.Net)...)
	for i, e := range sp.EpsFracs {
		if e <= 0 {
			add(fmt.Sprintf("eps_fracs[%d]", i), "must be > 0, got %v", e)
		}
	}
	for i, p := range sp.Periods {
		if p <= 0 {
			add(fmt.Sprintf("periods[%d]", i), "must be > 0, got %d", p)
		}
	}
	for i, d := range sp.DropPcts {
		if d < 0 || d >= 100 {
			add(fmt.Sprintf("drop_pcts[%d]", i), "must be in [0,100), got %v", d)
		}
	}
	for i, f := range sp.StraggleFactors {
		if f <= 0 {
			add(fmt.Sprintf("straggle_factors[%d]", i), "must be > 0, got %v", f)
		}
	}

	if len(errs) == 0 {
		return nil
	}
	return &ValidationError{Fields: errs}
}

// validateNet mirrors xnet's own panic-on-Build checks as field errors,
// so a bad network config is a 400 at submit time instead of a crashed
// job at run time.
func validateNet(cfg xnet.Config) []FieldError {
	var errs []FieldError
	add := func(field, format string, args ...any) {
		errs = append(errs, FieldError{Field: "net." + field, Msg: fmt.Sprintf(format, args...)})
	}
	if cfg.IntraNodeLatency < 0 {
		add("intra_node_latency", "must be >= 0, got %v", cfg.IntraNodeLatency)
	}
	if cfg.IntraNodeBandwidth < 0 {
		add("intra_node_bandwidth", "must be >= 0, got %v", cfg.IntraNodeBandwidth)
	}
	if cfg.InterNodeLatency < 0 {
		add("inter_node_latency", "must be >= 0, got %v", cfg.InterNodeLatency)
	}
	if cfg.InterNodeBandwidth < 0 {
		add("inter_node_bandwidth", "must be >= 0, got %v", cfg.InterNodeBandwidth)
	}
	for i, l := range cfg.Links {
		if l.Src < 0 || l.Dst < 0 {
			errs = append(errs, FieldError{
				Field: fmt.Sprintf("net.links[%d]", i),
				Msg:   fmt.Sprintf("node indices must be >= 0, got (%d,%d)", l.Src, l.Dst),
			})
		}
		if l.Latency < 0 || l.Bandwidth < 0 {
			errs = append(errs, FieldError{
				Field: fmt.Sprintf("net.links[%d]", i),
				Msg:   "latency and bandwidth must be >= 0",
			})
		}
	}
	for i, n := range cfg.StragglerNodes {
		if n < 0 {
			errs = append(errs, FieldError{
				Field: fmt.Sprintf("net.straggler_nodes[%d]", i),
				Msg:   fmt.Sprintf("must be >= 0, got %d", n),
			})
		}
	}
	if cfg.StragglerFactor < 0 {
		add("straggler_factor", "must be >= 0 (0 = default 1), got %v", cfg.StragglerFactor)
	}
	if cfg.DropPct < 0 || cfg.DropPct >= 100 {
		add("drop_pct", "must be in [0,100), got %v", cfg.DropPct)
	}
	if cfg.RetransmitTimeout < 0 {
		add("retransmit_timeout", "must be >= 0 (0 = default), got %v", cfg.RetransmitTimeout)
	}
	if cfg.MaxAttempts < 0 {
		add("max_attempts", "must be >= 0 (0 = default), got %d", cfg.MaxAttempts)
	}
	return errs
}
