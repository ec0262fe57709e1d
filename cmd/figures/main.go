// Command figures regenerates the data behind every figure of the paper
// "Cloud Friendly Load Balancing for HPC Applications: Preliminary Work"
// (ICPP 2012): ASCII timelines for Figures 1 and 3, and penalty /
// power / energy tables for Figures 2 and 4.
//
// Usage:
//
//	figures -fig all
//	figures -fig 2b -cores 4,8,16,32 -seeds 3 -scale 1.0
//	figures -fig 3 -svg fig3.svg
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cloudlb/internal/experiment"
	"cloudlb/internal/obs"
	"cloudlb/internal/plot"
	"cloudlb/internal/profiling"
	"cloudlb/internal/runner"
	"cloudlb/internal/service"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

// fig2Chart builds the grouped-bar version of a Figure 2 panel.
func fig2Chart(kind experiment.AppKind, evals []experiment.Eval) plot.BarChart {
	c := plot.BarChart{
		Title:  fmt.Sprintf("Figure 2: timing penalty, %s", kind),
		YLabel: "timing penalty %",
	}
	var noLB, lb, bgNo, bgLB []float64
	for _, e := range evals {
		c.Categories = append(c.Categories, strconv.Itoa(e.Cores))
		noLB = append(noLB, e.PenAppNoLB)
		lb = append(lb, e.PenAppLB)
		bgNo = append(bgNo, e.PenBGNoLB)
		bgLB = append(bgLB, e.PenBGLB)
	}
	c.Series = []plot.Series{
		{Name: "noLB", Values: noLB},
		{Name: "LB", Values: lb},
		{Name: "BG noLB", Values: bgNo},
		{Name: "BG LB", Values: bgLB},
	}
	return c
}

// fig4Chart builds the grouped-bar version of a Figure 4 panel.
func fig4Chart(kind experiment.AppKind, evals []experiment.Eval) plot.BarChart {
	c := plot.BarChart{
		Title:  fmt.Sprintf("Figure 4: power (W) and energy overhead (%%), %s", kind),
		YLabel: "W / %",
	}
	var pNo, pLB, eNo, eLB []float64
	for _, e := range evals {
		c.Categories = append(c.Categories, strconv.Itoa(e.Cores))
		pNo = append(pNo, e.PowerNoLB)
		pLB = append(pLB, e.PowerLB)
		eNo = append(eNo, e.EnergyOvhNoLB)
		eLB = append(eLB, e.EnergyOvhLB)
	}
	c.Series = []plot.Series{
		{Name: "noLB power", Values: pNo},
		{Name: "LB power", Values: pLB},
		{Name: "noLB energy ovh", Values: eNo},
		{Name: "LB energy ovh", Values: eLB},
	}
	return c
}

// tableFigure is one table figure: a registered method run over a Spec,
// printed locally as an ASCII table or fetched from a scenario service
// as CSV.
type tableFigure struct {
	id     string   // -fig selector
	title  []string // lines printed before the table
	method string
	spec   experiment.Spec
	table  string // Output.Tables key and service artifact name
	file   string // base name of the -csv (and -plots) files; "" writes none
	// chart, when set, renders the -plots SVG from the evaluate rows.
	chart func(experiment.AppKind, []experiment.Eval) plot.BarChart
}

// tableFigures lists every table figure in -fig order. Each Spec starts
// from base, which carries the scale, network and scheduler flags.
func tableFigures(base experiment.Spec, cores []int, seeds []int64) []tableFigure {
	spec := func(sp experiment.Spec) experiment.Spec {
		sp.Scale, sp.Net, sp.Shards = base.Scale, base.Net, base.Shards
		return sp
	}
	var figs []tableFigure
	for _, panel := range []struct {
		fig, table, title string
		chart             func(experiment.AppKind, []experiment.Eval) plot.BarChart
	}{
		{"2", "table.csv", "timing penalty vs cores", fig2Chart},
		{"4", "energy.csv", "power and normalized energy overhead", fig4Chart},
	} {
		for i, kind := range []experiment.AppKind{experiment.Jacobi2D, experiment.Wave2D, experiment.Mol3D} {
			figs = append(figs, tableFigure{
				id:     panel.fig + string(rune('a'+i)),
				title:  []string{fmt.Sprintf("Figure %s (%s): %s", panel.fig, kind, panel.title)},
				method: "evaluate",
				spec:   spec(experiment.Spec{App: kind, Cores: cores, Seeds: seeds}),
				table:  panel.table,
				file:   fmt.Sprintf("fig%s_%s", panel.fig, strings.ToLower(kind.String())),
				chart:  panel.chart,
			})
		}
	}

	// Extension beyond the paper: cloud elasticity. One spot revocation
	// with a short warning takes a core away mid-run and a replacement
	// arrives later; each strategy's penalty is measured against its own
	// fault-free baseline.
	const elasticCores = 8
	sched := experiment.Fig5Schedule(elasticCores, base.Scale)
	r := sched[0]
	figs = append(figs, tableFigure{
		id: "5",
		title: []string{
			fmt.Sprintf("Figure 5: timing penalty of a spot revocation (Wave2D, %d cores)", elasticCores),
			fmt.Sprintf("PE %d warned at t=%.3fs, core offline %.3f-%.3fs, replacement core %d",
				r.PE, float64(r.At-r.Warning), float64(r.At), float64(r.Restore), r.ReplacementCore),
		},
		method: "elasticity",
		spec: spec(experiment.Spec{
			App: experiment.Wave2D, Cores: []int{elasticCores}, Seeds: seeds,
			Strategies: []experiment.StrategyKind{experiment.NoLB, experiment.Refine, experiment.RefineSwap},
			Faults:     sched,
		}),
		table: "table.csv",
		file:  "fig5_wave2d",
	})

	// Extension beyond the paper: network interference, the cloud
	// counterpart of Figure 2's CPU interference. The interfered Fig. 2
	// workload runs a drop% x straggler sweep per strategy; penalties are
	// against the same strategy's run on the reliable uniform network, so
	// the added cost of the degraded network — including the balancer's
	// own migration traffic crossing it — is isolated from the
	// CPU-interference cost.
	const netCores = 8
	figs = append(figs, tableFigure{
		id: "6",
		title: []string{
			fmt.Sprintf("Figure 6: timing penalty of network interference (Wave2D, %d cores, interfered)", netCores),
			"drop % x straggler sweep; the straggler is the allocation's last node, its links get latency x factor and bandwidth / factor",
		},
		method: "net",
		spec: spec(experiment.Spec{
			App: experiment.Wave2D, Cores: []int{netCores}, Seeds: seeds,
			Strategies:      []experiment.StrategyKind{experiment.NoLB, experiment.Refine},
			DropPcts:        []float64{0, 2, 10},
			StraggleFactors: []float64{1, 16},
		}),
		table: "table.csv",
		file:  "fig6_wave2d",
	})

	figs = append(figs, tableFigure{
		id:     "sweep",
		title:  []string{"Sensitivity of RefineLB's design parameters (Wave2D, 8 cores):"},
		method: "sweep",
		spec: spec(experiment.Spec{
			App: experiment.Wave2D, Cores: []int{8}, Seeds: []int64{1},
			EpsFracs: []float64{0.01, 0.02, 0.05, 0.1}, Periods: []int{5, 10, 20, 40},
		}),
		table: "table.csv",
	}, tableFigure{
		id:     "compare",
		title:  []string{"Strategy comparison (Wave2D, 8 cores, interfered):"},
		method: "compare",
		spec: spec(experiment.Spec{
			App: experiment.Wave2D, Cores: []int{8}, Seeds: []int64{1},
			Strategies: []experiment.StrategyKind{experiment.NoLB, experiment.Refine, experiment.RefineInternal,
				experiment.RefineSwap, experiment.Greedy, experiment.Threshold, experiment.CostAware},
		}),
		table: "table.csv",
	})
	return figs
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1, 2a, 2b, 2c, 3, 4a, 4b, 4c, 5, 6, 7, sweep, compare, all (5-7, the cloud extensions, are opt-in)")
	scale := flag.Float64("scale", 1.0, "iteration-count scale factor (smaller = faster)")
	seedN := flag.Int("seeds", 3, "number of seeds to average over (the paper uses 3 runs)")
	coresFlag := flag.String("cores", "4,8,16,32", "comma-separated core counts")
	svgPath := flag.String("svg", "", "also write an SVG timeline (figures 1 and 3)")
	csvDir := flag.String("csv", "", "also write per-panel CSV files (figures 2 and 4) into this directory")
	plotDir := flag.String("plots", "", "also write per-panel SVG bar charts (figures 2 and 4) into this directory")
	width := flag.Int("width", 100, "ASCII timeline width")
	parallel := flag.Int("parallel", 0, "concurrent scenario workers (0 = GOMAXPROCS); any value produces identical output")
	shardsFlag := flag.String("shards", "1", "event-scheduler shards per scenario: 0 or 1 = one shard (the plain event engine), N = parallel node shards, auto = one per node up to GOMAXPROCS; any value produces identical output")
	dropPct := flag.Float64("droppct", 0, "percentage of inter-node transmissions lost and retransmitted in every scenario (0 = reliable; figure 6 sweeps its own drop axis)")
	straggle := flag.String("straggle", "", "straggler nodes and slowdown factor, NODES:FACTOR (e.g. \"1,3:4\"), applied to every scenario")
	netSeed := flag.Int64("netseed", 0, "seed of the packet-drop lottery")
	benchJSON := flag.String("benchjson", "", "run the engine and figure benchmarks, write JSON results to this path, and exit")
	submit := flag.String("submit", "", `evaluate table figures (2, 4, 5, 6, compare, sweep) on a running scenario service instead of in-process (server base URL; start one with -serve and -store)`)
	prof := profiling.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}

	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, *parallel); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		return
	}

	cores, err := parseCores(*coresFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
	shards, err := experiment.ParseShards(*shardsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
	stragNodes, stragFactor, err := experiment.ParseStraggle(*straggle)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
	netCfg := xnet.Config{DropPct: *dropPct, Seed: *netSeed}
	if len(stragNodes) > 0 {
		netCfg.StragglerNodes = stragNodes
		netCfg.StragglerFactor = stragFactor
	}
	seeds := make([]int64, *seedN)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}

	// All scenario batches fan out over one pool; Ctrl-C cancels the batch
	// in flight. The figure text on stdout is byte-identical at any worker
	// count (results are slotted by batch index), so the committed results/
	// tree regenerates exactly regardless of -parallel.
	// Metrics (when enabled) ride along on every scenario via Options;
	// they accumulate across figures into one registry written on exit and
	// never touch stdout, so the oracle stays byte-identical either way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// -log attaches a run trace to the context so every figure's batches
	// record their spans (and WARN-level anomalies) against one trace ID.
	log, err := prof.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
	if log != nil {
		tr := obs.NewTrace("figures", log)
		ctx = obs.NewContext(ctx, tr)
		log.Info("figures run starting", "trace_id", tr.ID(), "fig", *fig, "seeds", *seedN)
	}
	pool := &runner.Pool{Workers: *parallel, Metrics: prof.Registry(), Progress: prof.Tracker()}
	opts := experiment.Options{Executor: pool.Executor(), Metrics: prof.Registry(), LBTimeline: prof.Timeline()}
	start := time.Now()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}

	var client *service.Client
	if *submit != "" {
		if *csvDir != "" || *plotDir != "" || *svgPath != "" {
			fmt.Fprintln(os.Stderr, "figures: -submit prints the server's CSV artifact to stdout; -csv/-plots/-svg need local evaluation")
			os.Exit(2)
		}
		client = &service.Client{BaseURL: *submit}
	}
	// Every scenario of every figure runs with the -scale, -shards and
	// network flags, carried on its Spec so a -submit run computes exactly
	// what the local run does.
	base := experiment.Spec{Scale: *scale, Net: netCfg, Shards: shards}
	figs := tableFigures(base, cores, seeds)

	// runTable evaluates one table figure: locally, the method's table is
	// printed and optionally written as CSV/SVG; with -submit, the Spec is
	// posted to the scenario service, the job awaited (a repeat of the
	// same Spec is a cache hit served without simulating) and the table's
	// CSV artifact printed instead.
	runTable := func(tf tableFigure) {
		for _, line := range tf.title {
			fmt.Println(line)
		}
		if client != nil {
			view, err := client.Run(ctx, service.Request{Method: tf.method, Spec: tf.spec})
			if err != nil {
				fail(err)
			}
			if view.State == service.StateFailed {
				fail(fmt.Errorf("remote job %s failed: %s", view.ID, view.Error))
			}
			source := "computed"
			if view.Cached {
				source = "cache hit"
			}
			art, ok := view.Artifacts[tf.table]
			if !ok {
				fail(fmt.Errorf("remote job %s has no %s artifact", view.ID, tf.table))
			}
			b, err := client.Artifact(ctx, art)
			if err != nil {
				fail(err)
			}
			os.Stdout.Write(b)
			fmt.Fprintf(os.Stderr, "figures: job %s (%s): %s is %s%s\n",
				view.ID, source, tf.table, strings.TrimRight(*submit, "/"), art.URL)
			fmt.Println()
			return
		}
		out, err := tf.spec.Run(ctx, tf.method, opts)
		if err != nil {
			fail(err)
		}
		tab := out.Tables[tf.table]
		tab.Write(os.Stdout)
		if tf.chart != nil && *plotDir != "" {
			chart := tf.chart(tf.spec.App, out.Rows.([]experiment.Eval))
			writeFile(filepath.Join(*plotDir, tf.file+".svg"), chart.Render)
		}
		if tf.file != "" && *csvDir != "" {
			writeFile(filepath.Join(*csvDir, tf.file+".csv"), tab.WriteCSV)
		}
		fmt.Println()
	}

	run := func(f string) {
		switch f {
		case "1", "3", "7", "diffusion":
			if client != nil {
				fail(fmt.Errorf("figure %q renders locally (timelines / host-time measurements); run it without -submit", f))
			}
		}
		switch f {
		case "1":
			fig1(*scale, *width, *svgPath)
			return
		case "3":
			fig3(*scale, *width, *svgPath)
			return
		case "7", "diffusion":
			// Extension beyond the paper: load balancing at cloud scale.
			// The interfered Wave2D workload at 1024 cores / ~100k chares,
			// DiffusionLB's distributed neighbor-exchange protocol against
			// the centralized refiners (flat and tree gather). The table is
			// fully deterministic; the host-time planning cost — the number
			// the distributed protocol exists to shrink — is machine-
			// dependent and goes to stderr.
			fmt.Println("Figure 7: load balancing at cloud scale (Wave2D, 1024 cores, ~100k chares, interfered)")
			fmt.Println("distributed diffusion vs centralized refinement; peak state B is the largest per-PE LB planning state")
			evals, err := experiment.Fig7(ctx, opts, base)
			if err != nil {
				fail(err)
			}
			tab := experiment.Fig7Table(evals)
			tab.Write(os.Stdout)
			if *csvDir != "" {
				writeFile(filepath.Join(*csvDir, "fig7_wave2d.csv"), tab.WriteCSV)
			}
			for _, e := range evals {
				fmt.Fprintf(os.Stderr, "figures: fig7 %-14s Strategy.Plan host time %.3fs\n", e.Label, e.PlanHostSeconds)
			}
			fmt.Println()
			return
		case "net":
			f = "6"
		}
		matched := false
		for _, tf := range figs {
			// "2" and "4" select the panel of every application.
			if tf.id == f || len(tf.id) == 2 && tf.id[:1] == f {
				runTable(tf)
				matched = true
			}
		}
		if !matched {
			fmt.Fprintf(os.Stderr, "figures: unknown figure %q\n", f)
			os.Exit(2)
		}
	}

	if *fig == "all" {
		for _, f := range []string{"1", "2a", "2b", "2c", "3", "4a", "4b", "4c", "sweep", "compare"} {
			run(f)
		}
	} else {
		run(*fig)
	}

	// Perf summary on stderr: stdout is the byte-exact figure oracle and
	// must not change with worker count or host speed.
	wall, events, scenarios := pool.Totals()
	if scenarios > 0 {
		fmt.Fprintf(os.Stderr, "figures: %d scenarios, %d simulated events in %.2fs total wall-clock (%.3gM events/s, %d workers)\n",
			scenarios, events, time.Since(start).Seconds(), float64(events)/wall.Seconds()/1e6, pool.WorkerCount())
	}

	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func parseCores(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad core count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fig1(scale float64, width int, svgPath string) {
	res := experiment.Fig1(scale)
	fmt.Println("Figure 1: background task disturbing load balance (Wave2D, 4 cores, no LB)")
	fmt.Printf("1-core background job starts at t=%.3fs on core 3; run finishes at t=%.3fs\n",
		float64(res.HogStart), float64(res.AppFinish))
	// Window (a): before interference. Window (b): after.
	span := (res.AppFinish - res.HogStart) / 4
	fmt.Println("\n(a) no BG task:")
	res.Trace.RenderASCII(os.Stdout, res.Cores, res.HogStart-span, res.HogStart, width)
	fmt.Println("\n(b) core 3 overloaded:")
	res.Trace.RenderASCII(os.Stdout, res.Cores, res.HogStart, res.HogStart+span, width)
	writeSVG(svgPath, func(w io.Writer) {
		res.Trace.RenderSVG(w, res.Cores, 0, res.AppFinish, 1000)
	})
	fmt.Println()
}

func fig3(scale float64, width int, svgPath string) {
	res := experiment.Fig3(scale)
	fmt.Println("Figure 3: load balancer adapting to dynamic interference (Wave2D, 4 cores, RefineLB)")
	fmt.Printf("BG on core 1: %.2f-%.2fs; BG on core 3: %.2f-%.2fs; finish %.2fs; %d migrations\n",
		float64(res.Hog1Start), float64(res.Hog1Stop),
		float64(res.Hog2Start), float64(res.Hog2Stop),
		float64(res.AppFinish), res.Migrations)
	phases := []struct {
		label    string
		from, to sim.Time
	}{
		{"(a) core 1 overloaded", res.Hog1Start, res.Hog1Start + (res.Hog1Stop-res.Hog1Start)/3},
		{"(b) load balanced", res.Hog1Stop - (res.Hog1Stop-res.Hog1Start)/3, res.Hog1Stop},
		{"(c) no BG task", res.Hog1Stop + (res.Hog2Start-res.Hog1Stop)/4, res.Hog2Start - (res.Hog2Start-res.Hog1Stop)/4},
		{"(d) core 3 overloaded", res.Hog2Start, res.Hog2Start + (res.Hog2Stop-res.Hog2Start)/3},
		{"(e) load balanced", res.Hog2Stop - (res.Hog2Stop-res.Hog2Start)/3, res.Hog2Stop},
	}
	for _, p := range phases {
		fmt.Println("\n" + p.label + ":")
		res.Trace.RenderASCII(os.Stdout, res.Cores, p.from, p.to, width)
	}
	writeSVG(svgPath, func(w io.Writer) {
		res.Trace.RenderSVG(w, res.Cores, 0, res.AppFinish, 1200)
	})
	fmt.Println()
}

func writeSVG(path string, render func(io.Writer)) {
	if path != "" {
		writeFile(path, func(w io.Writer) error { render(w); return nil })
	}
}

// writeFile creates path, renders into it and reports "wrote path" on
// stdout (the status lines are part of the committed figure logs).
func writeFile(path string, render func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = render(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}
