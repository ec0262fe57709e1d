package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// workload is one named benchmark input set. setup may be called several
// times; each call replaces the previous state and must leave the
// workload ready for op. op runs one timed operation and reports every
// request it made; a non-nil tr asks for per-layer observations.
type workload interface {
	setup(seed int64) error
	op(tr *layers) []opRecord
	close()
}

// opRecord is one timed request: its kind (batch, scenario, miss, hit),
// the input it ran when a workload cycles through several fixed inputs,
// its host wall time, and err when it errored or produced wrong output.
type opRecord struct {
	kind  string
	input string
	wall  time.Duration
	err   error
}

// workloadSpec is one named workload: how to build it, the op kind its
// op_s times, and the name the human summary gives that figure.
type workloadSpec struct {
	name, kind, metric string
	build              func() workload
}

var workloads = []workloadSpec{
	{"stencil-testbed", "batch", "batch_s", func() workload {
		return &stencilTestbed{refs: references["stencil-testbed"]}
	}},
	{"mol3d-sharded", "scenario", "scenario_s", func() workload {
		return &scenarioWorkload{build: mol3dScenario, inputs: 3, refs: references["mol3d-sharded"]}
	}},
	{"cloud-churn-256", "scenario", "scenario_s", func() workload {
		return &scenarioWorkload{build: churnScenario, inputs: 1, refs: references["cloud-churn-256"]}
	}},
	{"service-mix", "miss", "job_miss_s", func() workload {
		return &serviceMix{refs: references["service-mix"]}
	}},
}

func findWorkload(name string) (workloadSpec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// metric is one reported figure with the number of samples behind it.
// Absent marks a per-layer metric whose layer the workload never
// exercised; it is reported as value 0 in the result line.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Absent bool    `json:"absent,omitempty"`
}

// runRecord is everything one run measured, written as record.json
// beside the run's CPU profiles.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Host      hostRecord        `json:"host"`
	SetupS    []float64         `json:"setup_s_rounds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Summary   map[string]metric `json:"summary"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Profiles  []string          `json:"profiles,omitempty"`
	// Walls lists every successful untraced op's host seconds by kind
	// and input, in the order they ran.
	Walls map[string]inputWalls `json:"walls"`
}

// runWorkload sets w up setupRounds times, then runs operations until
// the measuring time is spent. A traced run alternates untraced and
// traced operations so both see the same host conditions; only the
// traced ones run under the CPU profiler.
func runWorkload(spec workloadSpec, seed int64, seconds time.Duration, traced bool, outRoot string) (*runRecord, error) {
	w := spec.build()
	defer w.close()
	rec := &runRecord{Workload: spec.name, Seed: seed, Seconds: seconds.Seconds(), Traced: traced, Host: currentHost(seed)}
	for r := 0; r < setupRounds; r++ {
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
	}
	outDir := filepath.Join(outRoot, spec.name, fmt.Sprintf("seed%d-trace%d", seed, b2i(traced)))
	if err := os.RemoveAll(outDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}

	walls := map[bool]map[string]inputWalls{false: {}, true: {}}
	lay := newLayers()
	deadline := time.Now().Add(seconds)
	// Every run makes at least one untraced op (and one traced op when
	// traced), however short --seconds is.
	for i := 0; time.Now().Before(deadline) || i < 1+b2i(traced); i++ {
		tracedOp := traced && i%2 == 1
		var tr *layers
		var prof bytes.Buffer
		if tracedOp {
			tr = lay
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		recs := w.op(tr)
		if tracedOp {
			pprof.StopCPUProfile()
			file := filepath.Join(outDir, fmt.Sprintf("cpu-op%03d.pprof", i))
			if err := os.WriteFile(file, prof.Bytes(), 0o644); err != nil {
				return nil, err
			}
			rec.Profiles = append(rec.Profiles, file)
			if err := lay.attributeProfile(prof.Bytes()); err != nil {
				return nil, fmt.Errorf("reading cpu profile: %w", err)
			}
		}
		for _, r := range recs {
			rec.Attempted++
			if r.err != nil {
				rec.Failed++
				if len(rec.Failures) < 20 {
					rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", r.kind, r.err))
				}
				continue
			}
			byInput := walls[tracedOp][r.kind]
			if byInput == nil {
				byInput = inputWalls{}
				walls[tracedOp][r.kind] = byInput
			}
			byInput[r.input] = append(byInput[r.input], r.wall.Seconds())
		}
	}

	plain := walls[false]
	rec.Walls = plain
	rec.EndToEnd = map[string]metric{
		"setup_s":     {Value: median(rec.SetupS), Unit: "s", N: len(rec.SetupS)},
		"op_s":        {Value: plain[spec.kind].typical(), Unit: "s", N: plain[spec.kind].count()},
		"peak_rss_mb": {Value: peakRSSMB(), Unit: "MB", N: 1},
	}
	rec.Summary = map[string]metric{
		"setup_s":     rec.EndToEnd["setup_s"],
		spec.metric:   rec.EndToEnd["op_s"],
		"failed_frac": {Value: float64(rec.Failed) / float64(rec.Attempted), Unit: "ratio", N: rec.Attempted},
		"peak_rss_mb": rec.EndToEnd["peak_rss_mb"],
	}
	if hits := plain["hit"][""]; len(hits) > 0 {
		rec.Summary["job_hit_ms"] = metric{Value: 1e3 * median(hits), Unit: "ms", N: len(hits)}
		// A percentile is reported only with at least ten samples beyond it.
		if len(hits) >= 200 {
			rec.Summary["job_hit_ms_p95"] = metric{Value: 1e3 * quantile(hits, 0.95), Unit: "ms", N: len(hits)}
		}
	}
	if traced {
		tw := walls[true][spec.kind]
		lay.set("trace.overhead_s", tw.typical()-plain[spec.kind].typical(), tw.count())
		rec.PerLayer = lay.report()
	}
	// With no successful op there is nothing to time; the run reports 0
	// there and correct is false.
	for _, ms := range []map[string]metric{rec.EndToEnd, rec.Summary} {
		for name, m := range ms {
			if math.IsNaN(m.Value) {
				m.Value = 0
				ms[name] = m
			}
		}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "record.json"), append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	return rec, nil
}

// result is the benchmark's last stdout line.
func (rec *runRecord) result() any {
	ms := rec.EndToEnd
	if rec.Traced {
		ms = rec.PerLayer
	}
	out := make(map[string]any, len(ms))
	for name, m := range ms {
		out[name] = struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.Value, m.Unit}
	}
	return struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{rec.Failed == 0 && rec.Attempted > 0, rec.Attempted, rec.Failed, out}
}

// printHuman lists every metric by name with its unit and sample count.
func (rec *runRecord) printHuman(w io.Writer) {
	h := rec.Host
	fmt.Fprintf(w, "host: num_cpu=%d GOMAXPROCS=%d %s commit=%s seed=%d\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Seed)
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed\n", rec.Workload, rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	printMetrics(w, "end-to-end (untraced)", rec.Summary)
	if rec.Traced {
		printMetrics(w, "per-layer (traced, per op)", rec.PerLayer)
	}
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	fmt.Fprintf(w, "%s:\n", title)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		if m.Absent {
			fmt.Fprintf(w, "  %-28s absent\n", n)
			continue
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.N)
	}
}

// inputWalls holds an op kind's wall times by input.
type inputWalls map[string][]float64

// typical is the mean over inputs of each input's median wall time: the
// median shrugs off a disturbed op, and the mean weighs every input
// alike however many ops it got.
func (w inputWalls) typical() float64 {
	if len(w) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range w {
		sum += median(v)
	}
	return sum / float64(len(w))
}

func (w inputWalls) count() int {
	n := 0
	for _, v := range w {
		n += len(v)
	}
	return n
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between the order statistics of v
// (NaN for an empty v).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is the process's peak resident set in MB (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
