package matchmaker

import (
	"testing"

	"peerlearn/internal/core"
	"peerlearn/internal/dygroups"
)

// TestRunRoundSteadyStateAllocs bounds the allocations of a warm 10k
// Star round: seating and apply reuse the session's round scratch, so
// what remains is the policy's grouping, the report, and a constant
// few.
func TestRunRoundSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, err := NewSession(4, core.Star, core.MustLinear(0.5), dygroups.NewStar())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if _, err := s.Join(float64(i%997+1) / 997); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RunRound(); err != nil {
		t.Fatal(err)
	}
	var roundErr error
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.RunRound(); err != nil {
			roundErr = err
		}
	})
	if roundErr != nil {
		t.Fatal(roundErr)
	}
	if allocs > 6 {
		t.Fatalf("steady-state 10k RunRound allocates %.1f times, want ≤ 6", allocs)
	}
	t.Logf("steady-state 10k RunRound: %.1f allocs", allocs)
}
