//go:build race

package main

// raceEnabled reports whether the race detector is active. Its
// instrumentation takes most of the CPU profile, so profile-share checks
// skip under it.
const raceEnabled = true
