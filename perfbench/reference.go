package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"

	"cloudlb/internal/experiment"
)

// refResult is the deterministic part of an experiment.Result that every
// op is checked against. Host-time series, charm_messages_pooled_total
// (it moves with the shard count) and trace_spans.json are not
// deterministic and are never compared.
type refResult struct {
	AppWall        exactFloat `json:"app_wall"`
	BGWall         exactFloat `json:"bg_wall"`
	AvgPowerW      exactFloat `json:"avg_power_w"`
	EnergyJ        exactFloat `json:"energy_j"`
	Migrations     int        `json:"migrations"`
	LBSteps        int        `json:"lb_steps"`
	Events         uint64     `json:"events"`
	NetDrops       uint64     `json:"net_drops"`
	NetRetransmits uint64     `json:"net_retransmits"`
}

func refOf(r experiment.Result) refResult {
	return refResult{
		AppWall: exactFloat(r.AppWall), BGWall: exactFloat(r.BGWall),
		AvgPowerW: exactFloat(r.AvgPowerW), EnergyJ: exactFloat(r.EnergyJ),
		Migrations: r.Migrations, LBSteps: r.LBSteps, Events: r.Events,
		NetDrops: r.NetDrops, NetRetransmits: r.NetRetransmits,
	}
}

// exactFloat compares and encodes a float64 bit-exact: the JSON form is
// the shortest decimal that parses back to the same bits, and NaN (a
// missing wall) is the string "NaN" and equals itself. It also reads the
// service's rows.json, which writes NaN as null.
type exactFloat float64

func (f exactFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) {
		return []byte(`"NaN"`), nil
	}
	return strconv.AppendFloat(nil, float64(f), 'g', -1, 64), nil
}

func (f *exactFloat) UnmarshalJSON(b []byte) error {
	if string(b) == `"NaN"` || string(b) == "null" {
		*f = exactFloat(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	*f = exactFloat(v)
	return err
}

func (f exactFloat) same(g exactFloat) bool {
	return math.Float64bits(float64(f)) == math.Float64bits(float64(g)) ||
		(math.IsNaN(float64(f)) && math.IsNaN(float64(g)))
}

// diff names the first field where got differs from want, or returns nil.
func (want refResult) diff(got refResult) error {
	floats := []struct {
		name string
		a, b exactFloat
	}{
		{"app_wall", want.AppWall, got.AppWall}, {"bg_wall", want.BGWall, got.BGWall},
		{"avg_power_w", want.AvgPowerW, got.AvgPowerW}, {"energy_j", want.EnergyJ, got.EnergyJ},
	}
	for _, f := range floats {
		if !f.a.same(f.b) {
			return fmt.Errorf("%s = %v, want %v", f.name, float64(f.b), float64(f.a))
		}
	}
	ints := []struct {
		name string
		a, b uint64
	}{
		{"migrations", uint64(want.Migrations), uint64(got.Migrations)},
		{"lb_steps", uint64(want.LBSteps), uint64(got.LBSteps)},
		{"events", want.Events, got.Events},
		{"net_drops", want.NetDrops, got.NetDrops},
		{"net_retransmits", want.NetRetransmits, got.NetRetransmits},
	}
	for _, f := range ints {
		if f.a != f.b {
			return fmt.Errorf("%s = %d, want %d", f.name, f.b, f.a)
		}
	}
	return nil
}

// refTable holds one workload's recorded results by op key: a scenario
// label, or a service-mix Spec seed.
type refTable map[string]refResult

// check compares got with the recorded result under key. A key with no
// recording (another seed, or a service-mix miss past the recorded ones)
// passes: the workload's seed-independent checks still apply to it.
func (t refTable) check(key string, got refResult) error {
	want, ok := t[key]
	if !ok {
		return nil
	}
	if err := want.diff(got); err != nil {
		return fmt.Errorf("differs from reference %s: %w", key, err)
	}
	return nil
}

//go:embed reference.json
var referenceJSON []byte

// references are the results recorded on defaultSeed, by workload.
var references = func() map[string]refTable {
	var refs map[string]refTable
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		panic("perfbench: reference.json: " + err.Error())
	}
	return refs
}()

// serviceRefMisses is how many service-mix misses reference.json covers:
// more than a 60-second run submits.
const serviceRefMisses = 256

// recordReferences reruns every workload's reference ops on defaultSeed
// and writes their results to file. Only a change that is meant to alter
// simulation results should ever need it.
func recordReferences(file string) error {
	refs := map[string]refTable{}
	for _, w := range workloads {
		refs[w.name] = refTable{}
		if sw, ok := w.build().(*scenarioWorkload); ok {
			for i := 0; i < sw.inputs; i++ {
				s := sw.build(inputSeed(defaultSeed, i, sw.inputs))
				refs[w.name][scenarioKey(s)] = refOf(experiment.Run(s))
			}
		}
	}
	for _, s := range stencilBatch(defaultSeed) {
		refs["stencil-testbed"][scenarioKey(s)] = refOf(experiment.Run(s))
	}
	seeds := newSpecSeeds(defaultSeed)
	for i := 0; i < serviceRefMisses; i++ {
		seed := seeds.next()
		sc := serviceSpec(seed).Scenarios()
		if len(sc) != 1 {
			return fmt.Errorf("service spec expands to %d scenarios, want 1", len(sc))
		}
		refs["service-mix"][strconv.FormatInt(seed, 10)] = refOf(experiment.Run(sc[0]))
	}
	b, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(b, '\n'), 0o644)
}
