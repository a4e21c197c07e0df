//go:build race

package main

// raceEnabled reports a race-instrumented test binary, whose offline
// replays run several times slower than the uninstrumented daemon they are
// compared with.
const raceEnabled = true
