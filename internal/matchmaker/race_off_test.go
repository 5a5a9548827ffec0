//go:build !race

package matchmaker

// raceDetectorEnabled reports whether the race detector is active; see
// race_on_test.go.
const raceDetectorEnabled = false
