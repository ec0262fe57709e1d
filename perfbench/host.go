package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// hostRecord stamps every run with the shape of the host it ran on.
// Records from hosts of different shape are not comparable.
type hostRecord struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func currentHost(seed int64) hostRecord {
	h := hostRecord{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: "unknown", Seed: seed,
	}
	// The go command stamps the revision when it builds inside a git
	// checkout; an exported tree has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// compareRecords prints each end-to-end metric of two run records side by
// side. Records from hosts of different shape (num_cpu, GOMAXPROCS,
// GOOS/GOARCH) are reported as not comparable and compared no further.
func compareRecords(w io.Writer, oldFile, newFile string) error {
	var recs [2]runRecord
	for i, f := range []string{oldFile, newFile} {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	a, b := recs[0], recs[1]
	if a.Workload != b.Workload {
		return fmt.Errorf("records are of different workloads: %s and %s", a.Workload, b.Workload)
	}
	ha, hb := a.Host, b.Host
	if ha.NumCPU != hb.NumCPU || ha.GOMAXPROCS != hb.GOMAXPROCS || ha.GOOS != hb.GOOS || ha.GOARCH != hb.GOARCH {
		fmt.Fprintf(w, "not comparable: host num_cpu=%d GOMAXPROCS=%d %s/%s vs num_cpu=%d GOMAXPROCS=%d %s/%s\n",
			ha.NumCPU, ha.GOMAXPROCS, ha.GOOS, ha.GOARCH, hb.NumCPU, hb.GOMAXPROCS, hb.GOOS, hb.GOARCH)
		return nil
	}
	fmt.Fprintf(w, "%s: seed %d (%s) vs seed %d (%s)\n", a.Workload, a.Seed, ha.Commit, b.Seed, hb.Commit)
	names := make([]string, 0, len(a.Summary))
	for n := range a.Summary {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma, mb := a.Summary[n], b.Summary[n]
		change := "n/a"
		if ma.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Fprintf(w, "  %-16s %12.6g -> %12.6g %-5s %s (n=%d/%d)\n", n, ma.Value, mb.Value, ma.Unit, change, ma.N, mb.N)
	}
	return nil
}
