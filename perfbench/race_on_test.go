//go:build race

package main

// raceEnabled reports whether the race detector instruments this build;
// its frames cut profile stacks short.
const raceEnabled = true
