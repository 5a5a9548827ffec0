//go:build race

package matchmaker

// raceDetectorEnabled reports whether the race detector is active.
// Allocation-count assertions are skipped under -race: the detector's
// instrumentation allocates on paths that are allocation-free in
// normal builds.
const raceDetectorEnabled = true
