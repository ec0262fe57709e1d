package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"cloudlb/internal/stats"
	"cloudlb/internal/trace"
)

// Every evaluation is the same three steps: expand the Spec into a flat
// scenario batch, run the batch on one Executor, reduce the results to
// rows and tables. A method is a named triple of those steps; the
// registry below is the single list of them — the service's method enum,
// the CLI figures and the benchmarks all run through Spec.Run.

// Output is one method's reduced result.
type Output struct {
	// Rows is the method's row slice (e.g. []Eval), the service's
	// rows.json artifact.
	Rows any
	// Tables are the rendered tables keyed by artifact name ("table.csv",
	// and "energy.csv" for evaluate).
	Tables map[string]*stats.Table
	// Trace is the Chrome timeline of a single-scenario scenarios batch
	// (nil otherwise), the service's trace.json artifact.
	Trace []byte
}

// method is one registry entry. check runs on the normalized Spec after
// Spec.Validate and returns the method's shape errors; batch expands the
// normalized Spec; reduce turns the batch's results into the Output.
type method struct {
	name   string
	check  func(Spec) []FieldError
	batch  func(Spec) []Scenario
	reduce func(sp Spec, batch []Scenario, results []Result) Output
}

// methods is the registry, in the order Methods lists it. The names are
// the service's wire names: they prefix cache keys, so they never change.
var methods = []method{
	{"scenarios", nil, scenariosBatch, scenariosReduce},
	{"evaluate", checks(needApp), evaluateBatch, evaluateReduce},
	{"compare", checks(needApp, oneCores, oneSeed), compareBatch, compareReduce},
	{"sweep", checks(needApp, oneCores, oneSeed, sweepAxes), sweepBatch, sweepReduce},
	{"elasticity", checks(needApp, oneCores), elasticityBatch, elasticityReduce},
	{"net", checks(needApp, oneCores, netAxes), netBatch, netReduce},
}

// Methods lists the registered method names.
func Methods() []string {
	names := make([]string, len(methods))
	for i, m := range methods {
		names[i] = m.name
	}
	return names
}

func lookupMethod(name string) *method {
	for i := range methods {
		if methods[i].name == name {
			return &methods[i]
		}
	}
	return nil
}

// ValidateMethod is Validate plus the named method's shape requirements
// (one core count for compare, baseline-first axes for net, …), all
// reported at once as a *ValidationError. An unknown method adds no shape
// errors; Spec.Run rejects it, and callers that accept method names check
// them against Methods.
func (sp Spec) ValidateMethod(name string) error {
	var errs []FieldError
	if err := sp.Validate(); err != nil {
		errs = append(errs, err.(*ValidationError).Fields...)
	}
	if m := lookupMethod(name); m != nil && m.check != nil {
		errs = append(errs, m.check(sp.normalized())...)
	}
	if len(errs) == 0 {
		return nil
	}
	return &ValidationError{Fields: errs}
}

// Batch returns the flat scenario batch the named method runs for the
// Spec: normalized, validated, and with Spec.Net and Spec.Shards applied
// to every scenario that carries none.
func (sp Spec) Batch(name string) ([]Scenario, error) {
	m, sp, err := sp.resolve(name)
	if err != nil {
		return nil, err
	}
	return sp.decorate(m.batch(sp)), nil
}

// Run evaluates the Spec with the named method: it expands the batch
// (see Batch), dispatches it on opts' executor and reduces the results.
// It is the one entry point every method runs through.
func (sp Spec) Run(ctx context.Context, name string, opts Options) (Output, error) {
	m, sp, err := sp.resolve(name)
	if err != nil {
		return Output{}, err
	}
	batch := sp.decorate(m.batch(sp))
	results, err := opts.run(ctx, batch)
	if err != nil {
		return Output{}, err
	}
	return m.reduce(sp, batch, results), nil
}

// resolve looks the method up, validates the Spec for it and returns the
// normalized Spec the method's steps consume.
func (sp Spec) resolve(name string) (*method, Spec, error) {
	m := lookupMethod(name)
	if m == nil {
		return nil, sp, fmt.Errorf("experiment: unknown method %q (want one of %v)", name, Methods())
	}
	if err := sp.ValidateMethod(name); err != nil {
		return nil, sp, err
	}
	return m, sp.normalized(), nil
}

// decorate applies the Spec's network and scheduler to every scenario
// that carries none.
func (sp Spec) decorate(batch []Scenario) []Scenario {
	for i := range batch {
		if batch[i].Net.IsZero() {
			batch[i].Net = sp.Net
		}
		if batch[i].Shards == 0 {
			batch[i].Shards = sp.Shards
		}
	}
	return batch
}

// checks concatenates shape checks into one method check.
func checks(fns ...func(Spec) []FieldError) func(Spec) []FieldError {
	return func(sp Spec) []FieldError {
		var errs []FieldError
		for _, fn := range fns {
			errs = append(errs, fn(sp)...)
		}
		return errs
	}
}

func needApp(sp Spec) []FieldError {
	if sp.App == AppNone {
		return []FieldError{{Field: "app", Msg: `"none" is only valid for the scenarios method (the others measure an application)`}}
	}
	return nil
}

func oneCores(sp Spec) []FieldError {
	if len(sp.Cores) != 1 {
		return []FieldError{{Field: "cores", Msg: fmt.Sprintf("needs exactly one core count, got %v", sp.Cores)}}
	}
	return nil
}

func oneSeed(sp Spec) []FieldError {
	if len(sp.Seeds) != 1 {
		return []FieldError{{Field: "seeds", Msg: fmt.Sprintf("needs exactly one seed, got %v", sp.Seeds)}}
	}
	return nil
}

func sweepAxes(sp Spec) []FieldError {
	var errs []FieldError
	if len(sp.EpsFracs) == 0 {
		errs = append(errs, FieldError{Field: "eps_fracs", Msg: "needs at least one epsilon fraction"})
	}
	if len(sp.Periods) == 0 {
		errs = append(errs, FieldError{Field: "periods", Msg: "needs at least one LB period"})
	}
	return errs
}

// netAxes requires both sweep axes to start at the reliable-uniform
// point: that cell is every strategy's penalty baseline.
func netAxes(sp Spec) []FieldError {
	var errs []FieldError
	if len(sp.DropPcts) == 0 || sp.DropPcts[0] != 0 {
		errs = append(errs, FieldError{Field: "drop_pcts[0]", Msg: fmt.Sprintf("must be 0 (the baseline cell), got %v", sp.DropPcts)})
	}
	if len(sp.StraggleFactors) == 0 || sp.StraggleFactors[0] != 1 {
		errs = append(errs, FieldError{Field: "straggle_factors[0]", Msg: fmt.Sprintf("must be 1 (the baseline cell), got %v", sp.StraggleFactors)})
	}
	return errs
}

// scenariosBatch is the raw Cores × Strategies × Seeds batch; a
// single-scenario batch also records its timeline for Output.Trace.
func scenariosBatch(sp Spec) []Scenario {
	batch := sp.Scenarios()
	if len(batch) == 1 {
		batch[0].Trace = trace.NewRecorder()
	}
	return batch
}

// nanFloat is a float64 that encodes NaN as JSON null. Result.AppWall is
// NaN for background-only runs and Result.BGWall is NaN without a
// background job; encoding/json rejects NaN outright.
type nanFloat float64

func (f nanFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// resultRow mirrors Result for the scenarios method's rows, NaN-safe and
// snake_cased.
type resultRow struct {
	AppWall        nanFloat `json:"app_wall"`
	BGWall         nanFloat `json:"bg_wall"`
	AvgPowerW      float64  `json:"avg_power_w"`
	EnergyJ        float64  `json:"energy_j"`
	Migrations     int      `json:"migrations"`
	LBSteps        int      `json:"lb_steps"`
	Evacuations    int      `json:"evacuations"`
	Events         uint64   `json:"events"`
	NetDrops       uint64   `json:"net_drops"`
	NetRetransmits uint64   `json:"net_retransmits"`
}

func scenariosReduce(_ Spec, batch []Scenario, results []Result) Output {
	rows := make([]resultRow, len(results))
	t := stats.NewTable("cores", "strategy", "seed", "app wall s", "bg wall s", "migrations", "lb steps", "evacuations", "events")
	for i, r := range results {
		rows[i] = resultRow{
			AppWall: nanFloat(r.AppWall), BGWall: nanFloat(r.BGWall),
			AvgPowerW: r.AvgPowerW, EnergyJ: r.EnergyJ,
			Migrations: r.Migrations, LBSteps: r.LBSteps,
			Evacuations: r.Evacuations, Events: r.Events,
			NetDrops: r.NetDrops, NetRetransmits: r.NetRetransmits,
		}
		s := batch[i]
		t.AddRow(s.Cores, s.Strategy.String(), s.Seed,
			finiteOrZero(r.AppWall), finiteOrZero(r.BGWall),
			r.Migrations, r.LBSteps, r.Evacuations, r.Events)
	}
	out := Output{Rows: rows, Tables: map[string]*stats.Table{"table.csv": t}}
	if len(batch) == 1 && batch[0].Trace != nil {
		if b, err := batch[0].Trace.ChromeTraceJSON(); err == nil {
			out.Trace = b
		}
	}
	return out
}
