package matchmaker

import (
	"fmt"
	"testing"

	"peerlearn/internal/core"
	"peerlearn/internal/dygroups"
)

// TestRoundHookForcesOptimisticRetry drives the exact interleaving the
// optimistic round protects against — a seated participant leaving
// between the grouping computation and the apply — deterministically,
// through the round hook, and checks the round detects the stale
// snapshot and retries on the shrunken roster.
func TestRoundHookForcesOptimisticRetry(t *testing.T) {
	s, err := NewSession(2, core.Star, core.MustLinear(0.5), dygroups.NewStar())
	if err != nil {
		t.Fatal(err)
	}
	var ids []ParticipantID
	for _, skill := range []float64{0.9, 0.5, 0.7, 0.3} {
		id, err := s.Join(skill)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	fired := false
	s.SetRoundHook(func(stage RoundStage) {
		if stage == StageComputed && !fired {
			fired = true
			if err := s.Leave(ids[0]); err != nil {
				t.Errorf("mid-round leave: %v", err)
			}
		}
	})
	rep, err := s.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("round hook never fired")
	}
	if rep.Attempts < 2 {
		t.Fatalf("round reported %d attempts; a mid-round leave of a seated participant must force a retry", rep.Attempts)
	}
	// The effective round ran on the post-leave roster of 3: one pair
	// seated, one member sitting out.
	if rep.Participated != 2 || rep.SatOut != 1 {
		t.Fatalf("round = %+v, want 2 seated / 1 sat out on the shrunken roster", *rep)
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("roster after round = %d, want 3", got)
	}

	// A second round with the hook removed runs clean in one attempt.
	s.SetRoundHook(nil)
	rep, err = s.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 1 {
		t.Fatalf("clean round took %d attempts", rep.Attempts)
	}
}

// TestRoundHookStagesObserved checks both hook stages fire, in order,
// on a clean optimistic round.
func TestRoundHookStagesObserved(t *testing.T) {
	s, err := NewSession(2, core.Star, core.MustLinear(0.5), dygroups.NewStar())
	if err != nil {
		t.Fatal(err)
	}
	for _, skill := range []float64{0.9, 0.5} {
		if _, err := s.Join(skill); err != nil {
			t.Fatal(err)
		}
	}
	var stages []RoundStage
	s.SetRoundHook(func(stage RoundStage) { stages = append(stages, stage) })
	if _, err := s.RunRound(); err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 || stages[0] != StageSnapshotted || stages[1] != StageComputed {
		t.Fatalf("hook stages = %v, want [StageSnapshotted StageComputed]", stages)
	}
}

// TestSnapshotIsACopy checks Snapshot returns ordered, detached state.
func TestSnapshotIsACopy(t *testing.T) {
	s, err := NewSession(2, core.Star, core.MustLinear(0.5), dygroups.NewStar())
	if err != nil {
		t.Fatal(err)
	}
	for _, skill := range []float64{0.9, 0.5, 0.7} {
		if _, err := s.Join(skill); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d participants, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].ID >= snap[i].ID {
			t.Fatalf("snapshot not sorted by id: %v", snap)
		}
	}
	snap[0].Skill = 99
	if got, _ := s.Get(snap[0].ID); got.Skill == 99 { //peerlint:allow floateq — detecting the exact sentinel write, not a computed value
		t.Fatal("mutating the snapshot mutated the session")
	}
}

// TestJoinDuringComputeKeepsSnapshot checks a join that lands between
// the grouping computation and the apply does not invalidate the
// snapshot: the round applies on its first attempt, the joiner sits it
// out, and the seat order that follows still ranks the joiner by
// (rounds played, id) — even though the joiner was inserted inside the
// old seated prefix.
func TestJoinDuringComputeKeepsSnapshot(t *testing.T) {
	s, err := NewSession(2, core.Star, core.MustLinear(0.5), dygroups.NewStar())
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	s.SetEventSink(sink)
	for _, skill := range []float64{0.9, 0.5, 0.7} {
		if _, err := s.Join(skill); err != nil {
			t.Fatal(err)
		}
	}
	// Round 1 seats 1 and 2; 3 sits out. Round 2 then seats 3 (0 rounds
	// played) and 1, so the seated prefix spans the RoundsPlayed=0 run
	// the joiner is inserted into.
	if _, err := s.RunRound(); err != nil {
		t.Fatal(err)
	}
	var joiner ParticipantID
	s.SetRoundHook(func(stage RoundStage) {
		if stage == StageComputed && joiner == 0 {
			id, err := s.Join(0.3)
			if err != nil {
				t.Errorf("mid-round join: %v", err)
			}
			joiner = id
		}
	})
	rep, err := s.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	s.SetRoundHook(nil)
	if joiner == 0 {
		t.Fatal("round hook never fired")
	}
	if rep.Attempts != 1 {
		t.Fatalf("round took %d attempts; a join must not invalidate the snapshot", rep.Attempts)
	}
	if p, _ := s.Get(joiner); p.RoundsPlayed != 0 {
		t.Fatalf("joiner played %d rounds, want 0 (it joined after seating)", p.RoundsPlayed)
	}
	if _, err := s.RunRound(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"join:1:0.9", "join:2:0.5", "join:3:0.7",
		"round:1:seated=[1 2]",
		"join:4:0.3",
		"round:2:seated=[3 1]",
		"round:3:seated=[4 2 3 1]",
	}
	if fmt.Sprint(sink.events) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", sink.events, want)
	}
}

// TestLeaveOfSatOutMemberForcesRetry pins the epoch rule: any leave
// while a round computes invalidates the snapshot, even one of a member
// who sits the round out, so the round reports the roster it applied
// on.
func TestLeaveOfSatOutMemberForcesRetry(t *testing.T) {
	s, err := NewSession(2, core.Star, core.MustLinear(0.5), dygroups.NewStar())
	if err != nil {
		t.Fatal(err)
	}
	var ids []ParticipantID
	for _, skill := range []float64{0.9, 0.5, 0.7} {
		id, err := s.Join(skill)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	fired := false
	s.SetRoundHook(func(stage RoundStage) {
		if stage == StageComputed && !fired {
			fired = true
			// ids[2] has the lowest priority and sits this round out.
			if err := s.Leave(ids[2]); err != nil {
				t.Errorf("mid-round leave: %v", err)
			}
		}
	})
	rep, err := s.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("round hook never fired")
	}
	if rep.Attempts != 2 {
		t.Fatalf("round took %d attempts, want 2", rep.Attempts)
	}
	if rep.Participated != 2 || rep.SatOut != 0 {
		t.Fatalf("round = %+v, want 2 seated / 0 sat out on the shrunken roster", *rep)
	}
}
