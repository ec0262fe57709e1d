// Command perfbench is the repository's layered benchmark. It drives four
// named workloads — the interfered testbed stencils through the runner
// pool, sharded Mol3D, a 256-core cloud-churn Wave2D and the scenario job
// service over HTTP — through the program's public surfaces only
// (experiment.Run/Scenario/Result, runner.Pool.RunBatch, the v1 HTTP API
// of an in-process service over a fresh store, and metric series read by
// name), checks every operation's output, and times it end to end.
//
//	perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//	perfbench --record perfbench/reference.json   re-record the reference (seed 1)
//	perfbench compare OLD.json NEW.json
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 a separate pass alternates untraced
// and traced operations and reports the per-layer metrics instead: series
// of a fresh metrics registry, the service jobs' trace_spans.json spans,
// and a CPU profile attributed to packages. Each run also writes a record
// (host shape, every metric with its sample count) and, when traced, its
// CPU profiles under --out. See NOTES.md for the workloads and what each
// metric should and should not show.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// defaultSeed is the seed reference.json was recorded on: only runs with
// it can check results bit-exact against the recorded reference.
const defaultSeed = 1

// setupRounds is how many times a run sets its workload up; setup_s is
// the median, so one slow round does not move it.
const setupRounds = 3

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fatalf("usage: perfbench compare OLD.json NEW.json")
		}
		if err := compareRecords(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fatalf("compare: %v", err)
		}
		return
	}
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", defaultSeed, "seed the workload's inputs are drawn from")
		seconds = flag.Int("seconds", 25, "seconds of timed operations per run")
		traced  = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "out"), "directory for run records and CPU profiles")
		record  = flag.String("record", "", "rerun every workload's reference ops on seed 1 and write their results to this file (perfbench/reference.json)")
	)
	flag.Parse()
	if *record != "" {
		if err := recordReferences(*record); err != nil {
			fatalf("record: %v", err)
		}
		return
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatalf("--seconds must be >= 1 and --trace 0 or 1")
	}
	if *name == "all" {
		if err := runAll(*seed, *seconds, *traced, *out); err != nil {
			fatalf("%v", err)
		}
		return
	}
	spec, err := findWorkload(*name)
	if err != nil {
		fatalf("%v", err)
	}
	rec, err := runWorkload(spec, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	rec.printHuman(os.Stdout)
	line, err := json.Marshal(rec.result())
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in turn, each in a child process of this
// binary so each reports its own peak RSS, and relays their output.
func runAll(seed int64, seconds, traced int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced), "--out", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Printf("%s: %v\n", w.name, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload(s) failed", failed)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
