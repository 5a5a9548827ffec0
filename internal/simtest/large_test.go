package simtest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"peerlearn/internal/core"
	"peerlearn/internal/dygroups"
	"peerlearn/internal/matchmaker"
)

// seatRecorder is an EventSink that keeps the seat order of the last
// applied round.
type seatRecorder struct{ seated []int64 }

func (r *seatRecorder) Joined(int64, float64) error { return nil }
func (r *seatRecorder) Left(int64) error            { return nil }
func (r *seatRecorder) RoundApplied(rec matchmaker.RoundRecord) error {
	r.seated = append(r.seated[:0], rec.Seated...)
	return nil
}

// TestLargeRosterMatchesModel runs one seeded, interleaved
// join/leave/round sequence on a 10k-member session and on the
// reference model, and requires the seat order of every round, the
// round reports, and every participant's state to agree bit for bit.
// The fuzz target only reaches small rosters; this one exercises the
// session's incremental seat order where it matters: joins inserted
// mid-roster after rounds, leaves anywhere, and rounds whose seated
// prefix spans several rounds-played values.
func TestLargeRosterMatchesModel(t *testing.T) {
	const (
		members   = 10_000
		groupSize = 4
		ops       = 300
	)
	gain := core.MustLinear(0.5)
	session, err := matchmaker.NewSession(groupSize, core.Star, gain, dygroups.NewStar())
	if err != nil {
		t.Fatal(err)
	}
	rec := &seatRecorder{}
	session.SetEventSink(rec)
	model := NewModel(groupSize, core.Star, gain, dygroups.NewStar())
	rng := rand.New(rand.NewSource(20))

	join := func(at int) {
		skill := 0.01 + rng.Float64()
		sid, serr := session.Join(skill)
		mid, merr := model.Join(skill)
		if serr != nil || merr != nil || sid != mid {
			t.Fatalf("op %d: join diverges: session (%d, %v), model (%d, %v)", at, sid, serr, mid, merr)
		}
	}
	for i := 0; i < members; i++ {
		join(-1)
	}
	checker := NewChecker(groupSize)
	rounds := 0
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 3:
			join(i)
		case r < 6:
			ids := model.IDs()
			id := ids[rng.Intn(len(ids))]
			if serr, merr := session.Leave(id), model.Leave(id); serr != nil || merr != nil {
				t.Fatalf("op %d: leave(%d): session %v, model %v", i, id, serr, merr)
			}
		default:
			seats := model.roster()
			seats = seats[:len(seats)/groupSize*groupSize]
			want := make([]int64, len(seats))
			for j, p := range seats {
				want[j] = int64(p.ID)
			}
			srep, serr := session.RunRound()
			mrep, merr := model.RunRound()
			if serr != nil || merr != nil {
				t.Fatalf("op %d: round: session %v, model %v", i, serr, merr)
			}
			if srep.Round != mrep.Round || srep.Participated != mrep.Participated ||
				srep.SatOut != mrep.SatOut || srep.Groups != mrep.Groups ||
				math.Float64bits(srep.Gain) != math.Float64bits(mrep.Gain) {
				t.Fatalf("op %d: round reports diverge: session %+v, model %+v", i, *srep, *mrep)
			}
			if !slices.Equal(rec.seated, want) {
				t.Fatalf("op %d: round %d seat order diverges from the model: %s", i, srep.Round, firstDiff(rec.seated, want))
			}
			snap := session.Snapshot()
			checker.CheckAgreement(i, snap, model)
			checker.CheckJoinOrder(i, snap)
			if v := checker.Violations(); len(v) > 0 {
				t.Fatalf("op %d: %s", i, v[0])
			}
			rounds++
		}
	}
	if rounds < ops/5 {
		t.Fatalf("only %d rounds in %d ops", rounds, ops)
	}
}

// firstDiff describes where two seat orders first differ.
func firstDiff(got, want []int64) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("seat %d holds %d, want %d", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d seats, want %d", len(got), len(want))
}
