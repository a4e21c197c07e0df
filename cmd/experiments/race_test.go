//go:build race

package main

// raceEnabled reports a race-instrumented test binary, which runs the
// simulator over ten times slower.
const raceEnabled = true
