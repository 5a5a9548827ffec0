package matchmaker

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"peerlearn/internal/core"
	"peerlearn/internal/dygroups"
)

// recordingSink logs every event as a printable token, optionally
// failing, to verify ordering and the abort-on-error contract.
type recordingSink struct {
	events []string
	fail   error
}

func (r *recordingSink) Joined(id int64, skill float64) error {
	if r.fail != nil {
		return r.fail
	}
	r.events = append(r.events, fmt.Sprintf("join:%d:%g", id, skill))
	return nil
}

func (r *recordingSink) Left(id int64) error {
	if r.fail != nil {
		return r.fail
	}
	r.events = append(r.events, fmt.Sprintf("leave:%d", id))
	return nil
}

func (r *recordingSink) RoundApplied(rec RoundRecord) error {
	if r.fail != nil {
		return r.fail
	}
	r.events = append(r.events, fmt.Sprintf("round:%d:seated=%v", rec.Round, rec.Seated))
	return nil
}

func TestEventSinkObservesApplyOrder(t *testing.T) {
	s, err := NewSession(2, core.Star, core.MustLinear(0.5), dygroups.NewStar())
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	s.SetEventSink(sink)

	a, _ := s.Join(0.2)
	b, _ := s.Join(0.8)
	if _, err := s.RunRound(); err != nil {
		t.Fatal(err)
	}
	if err := s.Leave(a); err != nil {
		t.Fatal(err)
	}
	want := []string{
		fmt.Sprintf("join:%d:0.2", a),
		fmt.Sprintf("join:%d:0.8", b),
		// Seat order: equal rounds played and joined-round, so by id.
		fmt.Sprintf("round:1:seated=[%d %d]", a, b),
		fmt.Sprintf("leave:%d", a),
	}
	if len(sink.events) != len(want) {
		t.Fatalf("sink saw %v, want %v", sink.events, want)
	}
	for i := range want {
		if sink.events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, sink.events[i], want[i])
		}
	}
}

func TestEventSinkErrorAbortsMutation(t *testing.T) {
	s, err := NewSession(2, core.Star, core.MustLinear(0.5), dygroups.NewStar())
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	s.SetEventSink(sink)
	a, _ := s.Join(0.2)
	if _, err := s.Join(0.8); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	sink.fail = boom
	preStatus := s.Status()

	if _, err := s.Join(0.5); !errors.Is(err, boom) {
		t.Fatalf("join error = %v, want %v", err, boom)
	}
	if err := s.Leave(a); !errors.Is(err, boom) {
		t.Fatalf("leave error = %v, want %v", err, boom)
	}
	if _, err := s.RunRound(); !errors.Is(err, boom) {
		t.Fatalf("round error = %v, want %v", err, boom)
	}
	if got := s.Status(); got != preStatus {
		t.Fatalf("failed mutations changed state: %+v -> %+v", preStatus, got)
	}
	// The failed join must not have burned an id: recover the sink and
	// the next join gets the id the failed one would have.
	sink.fail = nil
	id, err := s.Join(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Fatalf("join after failed join got id %d, want 3", id)
	}
}

func TestRestoreContinuesSession(t *testing.T) {
	// Run a live session a while, capture its durable state, restore,
	// and check both continue identically.
	live, err := NewSession(2, core.Star, core.MustLinear(0.5), dygroups.NewStar())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := live.Join(0.1 * float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 3; r++ {
		if _, err := live.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Leave(2); err != nil {
		t.Fatal(err)
	}

	st := RestoreState{NextID: 5, Rounds: live.Rounds(), TotalGain: live.TotalGain(), Members: live.Snapshot()}
	restored, err := Restore(2, core.Star, core.MustLinear(0.5), dygroups.NewStar(), st)
	if err != nil {
		t.Fatal(err)
	}

	ls, rs := live.Status(), restored.Status()
	if ls != rs {
		t.Fatalf("restored status %+v != live %+v", rs, ls)
	}
	// Same next id allocation.
	lid, _ := live.Join(0.7)
	rid, _ := restored.Join(0.7)
	if lid != rid {
		t.Fatalf("restored allocates id %d, live %d", rid, lid)
	}
	// Same (deterministic) next round, bit for bit.
	lr, err := live.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	rr, err := restored.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(lr.Gain) != math.Float64bits(rr.Gain) {
		t.Fatalf("restored round gain %v != live %v", rr.Gain, lr.Gain)
	}
	lp, rp := live.Snapshot(), restored.Snapshot()
	if len(lp) != len(rp) {
		t.Fatalf("rosters diverged: %d vs %d", len(lp), len(rp))
	}
	for i := range lp {
		if lp[i].ID != rp[i].ID || math.Float64bits(lp[i].Skill) != math.Float64bits(rp[i].Skill) {
			t.Fatalf("participant %d diverged after restore", lp[i].ID)
		}
	}
}

func TestRestoreRejectsBadState(t *testing.T) {
	ok := RestoreState{NextID: 2, Rounds: 1, TotalGain: 0.5,
		Members: []Participant{{ID: 1, Skill: 0.5}, {ID: 2, Skill: 0.7}}}
	if _, err := Restore(2, core.Star, core.MustLinear(0.5), dygroups.NewStar(), ok); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	cases := map[string]RestoreState{
		"id beyond allocator": {NextID: 1, Members: []Participant{{ID: 2, Skill: 0.5}}},
		"zero id":             {NextID: 2, Members: []Participant{{ID: 0, Skill: 0.5}}},
		"bad skill":           {NextID: 1, Members: []Participant{{ID: 1, Skill: math.NaN()}}},
		"duplicate id":        {NextID: 2, Members: []Participant{{ID: 1, Skill: 0.5}, {ID: 1, Skill: 0.6}}},
		"negative rounds":     {NextID: 0, Rounds: -1},
	}
	for name, st := range cases {
		if _, err := Restore(2, core.Star, core.MustLinear(0.5), dygroups.NewStar(), st); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRestoreRejectsJoinOrderViolations covers the seat-key
// precondition: ids are allocated in join order, so a roster whose join
// round decreases as the id grows, or lies beyond the round count, was
// never produced by a live session.
func TestRestoreRejectsJoinOrderViolations(t *testing.T) {
	cases := map[string]RestoreState{
		"join round decreases with id": {NextID: 2, Rounds: 3,
			Members: []Participant{{ID: 2, Skill: 0.5, JoinedRound: 1}, {ID: 1, Skill: 0.6, JoinedRound: 2}}},
		"join round beyond rounds": {NextID: 1, Rounds: 2,
			Members: []Participant{{ID: 1, Skill: 0.5, JoinedRound: 3}}},
	}
	for name, st := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Restore(2, core.Star, core.MustLinear(0.5), dygroups.NewStar(), st); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}
