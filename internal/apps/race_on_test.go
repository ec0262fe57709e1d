//go:build race

package apps

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count gates skip under it: instrumentation changes the
// runtime's allocation behavior, so the counts stop meaning anything.
const raceEnabled = true
