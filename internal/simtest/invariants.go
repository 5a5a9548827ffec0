package simtest

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"peerlearn/internal/matchmaker"
)

// Counts accumulates the externally observed events of a run; the
// final metrics scrape must agree with them exactly.
type Counts struct {
	// Rounds, Seated, SatOut sum over the successful rounds the harness
	// observed through the HTTP surface.
	Rounds, Seated, SatOut int
	// Panics counts injected policy panics that actually fired.
	Panics int
	// HTTPRequests counts requests that passed through the
	// observability middleware (everything except /metrics scrapes,
	// which are deliberately mounted outside it).
	HTTPRequests int
}

// Checker verifies the run's global invariants. It is fed snapshots
// and events by the harness and accumulates violations instead of
// stopping, so one run reports everything it breaks.
type Checker struct {
	groupSize int
	// cohort holds the initial participants still present; the
	// no-starvation bound is checked over them.
	cohort map[matchmaker.ParticipantID]bool
	// prev remembers each live participant's last observed skill for
	// the monotonicity check.
	prev       map[matchmaker.ParticipantID]float64
	violations []string
}

// NewChecker returns a checker for a cohort with the given group size.
func NewChecker(groupSize int) *Checker {
	return &Checker{
		groupSize: groupSize,
		cohort:    make(map[matchmaker.ParticipantID]bool),
		prev:      make(map[matchmaker.ParticipantID]float64),
	}
}

// Violations returns every recorded invariant violation.
func (c *Checker) Violations() []string { return c.violations }

func (c *Checker) failf(format string, args ...any) {
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// AddCohort registers an initial-cohort member.
func (c *Checker) AddCohort(id matchmaker.ParticipantID) { c.cohort[id] = true }

// Left tells the checker a participant departed (cohort membership and
// skill history stop tracking them).
func (c *Checker) Left(id matchmaker.ParticipantID) {
	delete(c.cohort, id)
	delete(c.prev, id)
}

// CheckRound verifies one successful round report against the roster
// size it ran on: seated plus sat-out must cover the roster exactly,
// and the seated count must be a whole number of groups.
func (c *Checker) CheckRound(at int, rep *matchmaker.RoundReport, rosterBefore int) {
	if rep.Participated+rep.SatOut != rosterBefore {
		c.failf("op %d: round %d seated %d + sat-out %d != roster %d",
			at, rep.Round, rep.Participated, rep.SatOut, rosterBefore)
	}
	if rep.Groups*c.groupSize != rep.Participated {
		c.failf("op %d: round %d formed %d groups of %d but seated %d",
			at, rep.Round, rep.Groups, c.groupSize, rep.Participated)
	}
	if rep.Participated < c.groupSize {
		c.failf("op %d: round %d ran with only %d seated (< group size %d)",
			at, rep.Round, rep.Participated, c.groupSize)
	}
}

// CheckAgreement verifies the real session and the reference model are
// observationally identical: same roster, and per participant the same
// skill (bit for bit), rounds played, join round, and accumulated
// gain. This is participant conservation and numeric agreement in one:
// nobody is lost, duplicated, or silently mutated.
func (c *Checker) CheckAgreement(at int, session []matchmaker.Participant, model *Model) {
	ms := model.Snapshot()
	if len(session) != len(ms) {
		c.failf("op %d: session has %d participants, model %d", at, len(session), len(ms))
		return
	}
	for i := range session {
		sp, mp := session[i], ms[i]
		switch {
		case sp.ID != mp.ID:
			c.failf("op %d: roster mismatch at index %d: session id %d, model id %d", at, i, sp.ID, mp.ID)
		case math.Float64bits(sp.Skill) != math.Float64bits(mp.Skill):
			c.failf("op %d: participant %d skill %v (session) != %v (model)", at, sp.ID, sp.Skill, mp.Skill)
		case sp.RoundsPlayed != mp.RoundsPlayed:
			c.failf("op %d: participant %d rounds played %d (session) != %d (model)", at, sp.ID, sp.RoundsPlayed, mp.RoundsPlayed)
		case sp.JoinedRound != mp.JoinedRound:
			c.failf("op %d: participant %d joined round %d (session) != %d (model)", at, sp.ID, sp.JoinedRound, mp.JoinedRound)
		case math.Float64bits(sp.TotalGain) != math.Float64bits(mp.TotalGain):
			c.failf("op %d: participant %d total gain %v (session) != %v (model)", at, sp.ID, sp.TotalGain, mp.TotalGain)
		}
	}
}

// CheckJoinOrder verifies the seat-key precondition the session's
// incremental seat order relies on: ids are allocated in join order, so
// over a snapshot sorted by id the join round never decreases.
func (c *Checker) CheckJoinOrder(at int, session []matchmaker.Participant) {
	for i := 1; i < len(session); i++ {
		prev, cur := session[i-1], session[i]
		if cur.JoinedRound < prev.JoinedRound {
			c.failf("op %d: participant %d joined round %d, after participant %d joined round %d",
				at, cur.ID, cur.JoinedRound, prev.ID, prev.JoinedRound)
		}
	}
}

// CheckMonotone verifies no live participant's skill ever decreased: a
// nonnegative-rate linear gain can only raise a learner toward its
// teacher. It also folds newly seen participants into the history.
func (c *Checker) CheckMonotone(at int, session []matchmaker.Participant) {
	seen := make(map[matchmaker.ParticipantID]bool, len(session))
	for _, p := range session {
		seen[p.ID] = true
		if prev, ok := c.prev[p.ID]; ok && p.Skill < prev {
			c.failf("op %d: participant %d skill decreased %v -> %v", at, p.ID, prev, p.Skill)
		}
		c.prev[p.ID] = p.Skill
	}
	for id := range c.prev {
		if !seen[id] {
			delete(c.prev, id)
		}
	}
}

// CheckStarvation verifies the documented fairness bound: seating is
// fewest-rounds-first, so any two participants present since before
// the first round (and never leaving) can differ by at most one round
// played — nobody sits out while a same-priority peer plays twice.
func (c *Checker) CheckStarvation(at int, session []matchmaker.Participant) {
	minP, maxP := -1, -1
	for _, p := range session {
		if !c.cohort[p.ID] {
			continue
		}
		if minP == -1 || p.RoundsPlayed < minP {
			minP = p.RoundsPlayed
		}
		if p.RoundsPlayed > maxP {
			maxP = p.RoundsPlayed
		}
	}
	if minP != -1 && maxP-minP > 1 {
		c.failf("op %d: starvation: cohort rounds-played spread %d..%d exceeds the fairness bound of 1", at, minP, maxP)
	}
}

// CheckMetrics verifies the final /metrics exposition against the
// events the harness observed: the matchmaker counters must equal the
// per-round sums, the round-gain histogram must count every round and
// have cumulative (non-decreasing) buckets, recovered panics must
// match fired panic faults, no request may still be in flight, and the
// request counter must equal the requests the harness actually issued
// through the middleware.
func (c *Checker) CheckMetrics(expo string, counts Counts) {
	samples := ParseExposition(expo)
	intIs := func(name string, want int) {
		got, err := SumSamples(samples, name)
		if err != nil {
			c.failf("metrics: %v", err)
			return
		}
		if got != int64(want) {
			c.failf("metrics: %s = %d, observed events say %d", name, got, want)
		}
	}
	intIs("peerlearn_matchmaker_rounds_total", counts.Rounds)
	intIs("peerlearn_matchmaker_participants_seated_total", counts.Seated)
	intIs("peerlearn_matchmaker_participants_sat_out_total", counts.SatOut)
	intIs("peerlearn_matchmaker_round_gain_count", counts.Rounds)
	intIs("peerlearn_http_panics_total", counts.Panics)
	intIs("peerlearn_http_in_flight_requests", 0)
	intIs("peerlearn_http_requests_total", counts.HTTPRequests)

	// Bucket cumulativity: within the round-gain histogram, counts must
	// be non-decreasing in exposition order and end at the +Inf bucket
	// equal to _count.
	var last, inf int64 = -1, -1
	for _, s := range samples {
		if s.Name != "peerlearn_matchmaker_round_gain_bucket" {
			continue
		}
		v, err := strconv.ParseFloat(s.Value, 64)
		if err != nil {
			c.failf("metrics: parsing bucket %q: %v", s.Value, err)
			return
		}
		n := int64(v)
		if n < last {
			c.failf("metrics: round_gain bucket %q count %d below previous bucket %d (not cumulative)", s.Labels, n, last)
		}
		last = n
		if strings.Contains(s.Labels, `le="+Inf"`) {
			inf = n
		}
	}
	if inf != int64(counts.Rounds) {
		c.failf("metrics: round_gain +Inf bucket %d != rounds %d", inf, counts.Rounds)
	}
}
