// Command timeline renders per-core execution timelines (the Projections
// view of the paper's Figures 1 and 3) for a Wave2D run under dynamic
// interference, as ASCII and optionally SVG.
//
// Usage:
//
//	timeline                         # Figure 3-style run, ASCII phases
//	timeline -strategy none          # Figure 1-style: watch imbalance persist
//	timeline -svg out.svg            # also write the full SVG timeline
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cloudlb/internal/apps"
	"cloudlb/internal/charm"
	"cloudlb/internal/core"
	"cloudlb/internal/interfere"
	"cloudlb/internal/machine"
	"cloudlb/internal/metrics"
	"cloudlb/internal/profiling"
	"cloudlb/internal/projections"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
	"cloudlb/internal/xnet"
)

// normalize maps an imbalance series (>=1 when active) to [0,1] for
// sparkline rendering: 1.0 (balanced) maps to 0, numCores maps to 1.
func normalize(series []float64) []float64 {
	out := make([]float64, len(series))
	for i, v := range series {
		if v <= 1 {
			out[i] = 0
			continue
		}
		out[i] = (v - 1) / 3 // 4 cores: worst case max/mean = 4
	}
	return out
}

func main() {
	strategy := flag.String("strategy", "refine", "refine or none")
	iters := flag.Int("iters", 200, "Wave2D iterations")
	width := flag.Int("width", 100, "ASCII timeline width")
	profile := flag.Bool("profile", false, "also print the Projections-style analysis (time profile, imbalance, top chares)")
	svgPath := flag.String("svg", "", "write an SVG timeline to this path")
	chromePath := flag.String("chrome", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) to this path")
	hog1 := flag.Float64("hog1", 1.0, "start of the core-1 interfering job (s)")
	hog1stop := flag.Float64("hog1stop", 3.0, "end of the core-1 job (s)")
	hog2 := flag.Float64("hog2", 4.5, "start of the core-3 interfering job (s)")
	hog2stop := flag.Float64("hog2stop", 6.5, "end of the core-3 job (s)")
	lbSteps := flag.Bool("lbsteps", false, "print the per-LB-step table (moves, strategy wall time, per-PE load before/after)")
	prof := profiling.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "timeline:", err)
		os.Exit(1)
	}

	var strat core.Strategy
	switch *strategy {
	case "refine":
		strat = &core.RefineLB{EpsilonFrac: 0.02}
	case "none":
		strat = nil
	default:
		fmt.Fprintf(os.Stderr, "timeline: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	sh := sim.NewShards(1, 0)
	mach := machine.New(sh, machine.Config{Nodes: 1, CoresPerNode: 4, CoreSpeed: 1, Metrics: prof.Registry()})
	net := xnet.New(mach, xnet.DefaultConfig())
	rec := trace.NewRecorder()

	// The LB-step timeline feeds both the -lbsteps table and the -serve
	// /api/lbsteps endpoint; either flag enables it.
	tl := prof.Timeline()
	if tl == nil && *lbSteps {
		tl = &metrics.LBTimeline{}
	}
	rts := charm.NewRTS(charm.Config{
		Machine: mach, Net: net, Cores: []int{0, 1, 2, 3},
		Strategy: strat, Trace: rec, Name: "wave",
		Metrics: prof.Registry(), LBTimeline: tl,
	})
	apps.NewStencilApp(rts, apps.StencilConfig{
		Array: "wave", GridW: 256, GridH: 128, CharesX: 16, CharesY: 8,
		Iters: *iters, SyncEvery: 5, CostPerCell: 3e-6,
		NewKernel: apps.NewWaveKernel(256, 128, 0.4),
	})
	interfere.StartHog(mach, interfere.HogConfig{Core: 1, Start: sim.Time(*hog1), Stop: sim.Time(*hog1stop), Trace: rec, Name: "vm-a"})
	interfere.StartHog(mach, interfere.HogConfig{Core: 3, Start: sim.Time(*hog2), Stop: sim.Time(*hog2stop), Trace: rec, Name: "vm-b"})

	log, err := prof.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "timeline:", err)
		os.Exit(2)
	}
	log.Info("timeline run starting", "strategy", *strategy, "iters", *iters)

	tracker := prof.Tracker()
	tracker.BatchQueued(1)
	tracker.ScenarioStarted(0)
	t0 := time.Now()
	rts.Start()
	for !rts.Finished() && sh.Now() < 1000 {
		if err := sh.RunUntil(sh.Now() + 1); err != nil {
			panic(err)
		}
		// Publish per-core busy/idle so a live -serve scrape sees them move.
		mach.PublishMetrics()
	}
	mach.PublishMetrics()
	tracker.ScenarioDone(0, time.Since(t0), sh.Executed())
	log.Info("timeline run complete", "wall_s", time.Since(t0).Seconds(),
		"events", sh.Executed(), "migrations", rts.Migrations(), "lb_steps", rts.LBSteps())
	finish := rts.FinishTime()
	fmt.Printf("Wave2D (%s) finished at %.2fs, %d migrations, %d LB steps\n\n",
		*strategy, float64(finish), rts.Migrations(), rts.LBSteps())

	cores := []int{0, 1, 2, 3}
	rec.RenderASCII(os.Stdout, cores, 0, finish, *width)

	if *lbSteps {
		fmt.Println("\nper-LB-step timeline:")
		if err := tl.WriteTable(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "timeline:", err)
			os.Exit(1)
		}
	}

	if *profile {
		fmt.Println()
		projections.Profile(rec, cores, 0, finish, *width).Write(os.Stdout)
		fmt.Printf("imb  |%s|  (max/mean per-core task load; flat=balanced)\n",
			projections.Sparkline(normalize(projections.Imbalance(rec, cores, 0, finish, *width))))
		fmt.Println()
		fmt.Println("heaviest chares:")
		projections.WriteChareStats(os.Stdout, projections.ChareStats(rec), 10)
	}

	if *chromePath != "" {
		f, err := os.Create(*chromePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "timeline:", err)
			os.Exit(1)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, "timeline:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\nwrote %s\n", *chromePath)
	}

	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "timeline:", err)
			os.Exit(1)
		}
		rec.RenderSVG(f, cores, 0, finish, 1200)
		f.Close()
		fmt.Printf("\nwrote %s\n", *svgPath)
	}

	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "timeline:", err)
		os.Exit(1)
	}
}
