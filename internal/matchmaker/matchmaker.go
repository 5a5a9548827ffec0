// Package matchmaker maintains a long-lived learning cohort on an
// online platform: participants join and leave at any time, and the
// platform periodically runs a learning round over whoever is present —
// the continuous-operation counterpart of the fixed-population TDG
// model, and the natural server-side state for the scenario the paper's
// introduction motivates.
//
// A Session is safe for concurrent use: joins, leaves, and rounds can
// race freely; rounds operate on a consistent snapshot of the roster.
// Participants who do not fit the group size this round (the roster
// rarely divides evenly) sit the round out, longest-waiting first into
// groups — nobody starves.
package matchmaker

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"peerlearn/internal/core"
	"peerlearn/internal/metrics"
)

// Metrics aggregates round telemetry across every session that shares
// it: rounds run, participants seated and sat out, and the per-round
// gain distribution. Attach it with Session.SetMetrics; a nil Metrics
// disables reporting.
type Metrics struct {
	Rounds    *metrics.Counter
	Seated    *metrics.Counter
	SatOut    *metrics.Counter
	RoundGain *metrics.Histogram
}

// NewMetrics registers the matchmaker metric families on reg.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		Rounds: reg.Counter("peerlearn_matchmaker_rounds_total",
			"Learning rounds run across all sessions."),
		Seated: reg.Counter("peerlearn_matchmaker_participants_seated_total",
			"Participants seated into groups, summed over rounds."),
		SatOut: reg.Counter("peerlearn_matchmaker_participants_sat_out_total",
			"Participants who sat a round out, summed over rounds."),
		RoundGain: reg.Histogram("peerlearn_matchmaker_round_gain",
			"Aggregated learning gain per round.", metrics.GainBuckets),
	}
}

// ParticipantID identifies a session member.
type ParticipantID int64

// Participant is one cohort member's state.
type Participant struct {
	ID ParticipantID
	// Skill is the current skill value.
	Skill float64
	// JoinedRound is the round count when the participant joined.
	JoinedRound int
	// RoundsPlayed counts the learning rounds participated in.
	RoundsPlayed int
	// TotalGain accumulates the participant's skill gains.
	TotalGain float64
}

// RoundRecord describes one applied round for an EventSink: the round
// number, the participant ids in seat order, the grouping over those
// seat indices, and the realized gain. The slices are only valid for
// the duration of the sink call; a sink that retains them must copy.
type RoundRecord struct {
	Round    int
	Seated   []int64
	Grouping core.Grouping
	Gain     float64
}

// EventSink observes every roster and round mutation of a Session, in
// apply order, before the mutation is installed — the seam the durable
// serving tier hangs its per-session WAL on. A sink error aborts the
// mutation: the join/leave/round fails and session state is unchanged,
// so the log never lags the roster.
//
// Sink methods are invoked with the session lock held; they must be
// fast, must not call back into the Session, and must not block on the
// session from another goroutine.
type EventSink interface {
	Joined(id int64, skill float64) error
	Left(id int64) error
	RoundApplied(rec RoundRecord) error
}

// Session is a continuously running cohort.
type Session struct {
	mu sync.Mutex

	// policyMu serializes calls into the grouping policy, which may own
	// mutable state (e.g. a seeded *rand.Rand). It is separate from mu
	// so a long grouping computation does not stall Join/Leave/status
	// traffic; lock order is mu before policyMu, never the reverse.
	policyMu sync.Mutex

	groupSize int
	mode      core.Mode
	gain      core.Gain

	// policy is set once at construction; the guard is about the calls,
	// not the pointer — every dispatch into the (possibly stateful)
	// policy must be serialized.
	//peerlint:guardedby policyMu
	policy core.Grouper

	//peerlint:guardedby mu
	nextID ParticipantID
	//peerlint:guardedby mu
	members map[ParticipantID]*member
	// order is the live roster in seat order, (RoundsPlayed, ID)
	// ascending. Ids are allocated in join order and JoinedRound is the
	// round count at join, so JoinedRound never decreases as the id
	// grows and this is exactly the documented (RoundsPlayed,
	// JoinedRound, ID) priority. Seating copies a prefix; no round
	// sorts.
	//peerlint:guardedby mu
	order []*member
	// spare is the merge target of the next apply; its contents are
	// dead.
	//peerlint:guardedby mu
	spare []*member
	// epoch counts the mutations that invalidate a seated snapshot:
	// leaves and applied rounds. A join does not — the joiner is simply
	// unseated this round — so it leaves the epoch alone.
	//peerlint:guardedby mu
	epoch uint64
	// scratch is the idle round scratch. A round checks it out under mu
	// and returns it when done, so concurrent rounds on one session
	// never share buffers (the loser of a race allocates its own).
	//peerlint:guardedby mu
	scratch *roundScratch
	//peerlint:guardedby mu
	rounds int
	//peerlint:guardedby mu
	total float64
	//peerlint:guardedby mu
	metrics *Metrics

	// roundHook, when set, observes the lock-free window of optimistic
	// rounds (see SetRoundHook). Read under mu, invoked without it.
	//peerlint:guardedby mu
	roundHook RoundHook

	// sink, when set, is notified of every mutation under mu so its log
	// order matches apply order exactly (see EventSink).
	//peerlint:guardedby mu
	sink EventSink
}

// NewSession creates a cohort with the given group size, interaction
// mode, gain function, and grouping policy.
func NewSession(groupSize int, mode core.Mode, gain core.Gain, policy core.Grouper) (*Session, error) {
	if groupSize < 2 {
		return nil, fmt.Errorf("matchmaker: group size must be ≥2, got %d", groupSize)
	}
	if !mode.Valid() {
		return nil, fmt.Errorf("matchmaker: invalid mode %v", mode)
	}
	if gain == nil {
		return nil, fmt.Errorf("matchmaker: nil gain")
	}
	if policy == nil {
		return nil, fmt.Errorf("matchmaker: nil policy")
	}
	return &Session{
		groupSize: groupSize,
		mode:      mode,
		gain:      gain,
		policy:    policy,
		members:   make(map[ParticipantID]*member),
	}, nil
}

// member is a participant plus the session's bookkeeping for it.
type member struct {
	Participant
	// seatedRound is the number of the last round the member was
	// seated in (0 before the first). The apply step uses it to tell
	// this round's seated run from the rest of the roster: a join that
	// lands while the round computes can sit inside the old seated
	// prefix, so position alone cannot.
	seatedRound int
}

// seatCmp orders members by seat priority: fewest rounds played, then
// lowest id (equivalently earliest joiner; see Session.order).
func seatCmp(a, b *member) int {
	if c := cmp.Compare(a.RoundsPlayed, b.RoundsPlayed); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// RestoreState is the durable portion of a Session, as recovered from a
// WAL replay: the id allocator position, round and gain counters, and
// the full roster.
type RestoreState struct {
	NextID    int64
	Rounds    int
	TotalGain float64
	Members   []Participant
}

// Restore rebuilds a Session from recovered state, validating it the
// same way a live session would have built it: ids must be unique and
// within the allocator range, skills must be valid, and join rounds
// must lie in [0, Rounds] and never decrease as the id grows (ids are
// allocated in join order). The restored session continues exactly
// where the recovered one stopped — the next join gets NextID+1, the
// next round is Rounds+1.
func Restore(groupSize int, mode core.Mode, gain core.Gain, policy core.Grouper, st RestoreState) (*Session, error) {
	s, err := NewSession(groupSize, mode, gain, policy)
	if err != nil {
		return nil, err
	}
	if st.NextID < 0 || st.Rounds < 0 {
		return nil, fmt.Errorf("matchmaker: restore: negative counters (next id %d, rounds %d)", st.NextID, st.Rounds)
	}
	// Validate outside the lock; nothing here touches session state.
	roster := make([]*member, len(st.Members))
	for i, p := range st.Members {
		if p.ID < 1 || int64(p.ID) > st.NextID {
			return nil, fmt.Errorf("matchmaker: restore: participant id %d outside allocator range [1,%d]", p.ID, st.NextID)
		}
		if err := core.ValidateSkills(core.Skills{p.Skill}); err != nil {
			return nil, fmt.Errorf("matchmaker: restore: participant %d: %w", p.ID, err)
		}
		if p.JoinedRound < 0 || p.JoinedRound > st.Rounds {
			return nil, fmt.Errorf("matchmaker: restore: participant %d joined round %d outside [0,%d]", p.ID, p.JoinedRound, st.Rounds)
		}
		roster[i] = &member{Participant: p}
	}
	slices.SortFunc(roster, func(a, b *member) int { return cmp.Compare(a.ID, b.ID) })
	for i := 1; i < len(roster); i++ {
		prev, cur := roster[i-1], roster[i]
		if prev.ID == cur.ID {
			return nil, fmt.Errorf("matchmaker: restore: duplicate participant id %d", cur.ID)
		}
		if cur.JoinedRound < prev.JoinedRound {
			return nil, fmt.Errorf("matchmaker: restore: participant %d joined round %d after participant %d joined round %d",
				prev.ID, prev.JoinedRound, cur.ID, cur.JoinedRound)
		}
	}
	// The session has not escaped yet, but the roster fields are under
	// the guardedby contract and NewSession (not this function) built the
	// struct, so take the uncontended lock rather than reason about
	// escape here.
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range roster {
		s.members[p.ID] = p
	}
	slices.SortFunc(roster, seatCmp)
	s.order = roster
	s.nextID = ParticipantID(st.NextID)
	s.rounds = st.Rounds
	s.total = st.TotalGain
	return s, nil
}

// Join adds a participant with the given initial skill and returns its
// id.
func (s *Session) Join(skill float64) (ParticipantID, error) {
	if err := core.ValidateSkills(core.Skills{skill}); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID + 1
	if s.sink != nil {
		//peerlint:allow lockheld — sink appends must happen under mu so WAL order equals apply order; see EventSink contract
		if err := s.sink.Joined(int64(id), skill); err != nil {
			return 0, fmt.Errorf("matchmaker: join not durable: %w", err)
		}
	}
	s.nextID = id
	p := &member{Participant: Participant{ID: id, Skill: skill, JoinedRound: s.rounds}}
	s.members[id] = p
	// The joiner has the largest id and the fewest possible rounds, so
	// its seat is the end of the RoundsPlayed=0 run. That is the end of
	// the roster until the first round, checked first because a binary
	// search there costs a pointer chase per step.
	if n := len(s.order); n == 0 || s.order[n-1].RoundsPlayed == 0 {
		s.order = append(s.order, p)
	} else {
		i, _ := slices.BinarySearchFunc(s.order, 1, func(q *member, rounds int) int { return cmp.Compare(q.RoundsPlayed, rounds) })
		s.order = slices.Insert(s.order, i, p)
	}
	return id, nil
}

// Leave removes a participant; it errors if the id is unknown.
func (s *Session) Leave(id ParticipantID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.members[id]
	if !ok {
		return fmt.Errorf("matchmaker: unknown participant %d", id)
	}
	i, found := slices.BinarySearchFunc(s.order, p, seatCmp)
	if !found {
		return fmt.Errorf("matchmaker: participant %d missing from the seat order", id)
	}
	if s.sink != nil {
		//peerlint:allow lockheld — sink appends must happen under mu so WAL order equals apply order; see EventSink contract
		if err := s.sink.Left(int64(id)); err != nil {
			return fmt.Errorf("matchmaker: leave not durable: %w", err)
		}
	}
	delete(s.members, id)
	s.order = slices.Delete(s.order, i, i+1)
	s.epoch++
	return nil
}

// Len returns the current roster size.
func (s *Session) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.members)
}

// Rounds returns how many rounds have run.
func (s *Session) Rounds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds
}

// TotalGain returns the cohort's accumulated learning gain.
func (s *Session) TotalGain() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Status is a consistent point-in-time summary of a session: the
// fields are read under one lock acquisition, so TotalGain never
// includes a round that Rounds does not (and vice versa).
type Status struct {
	Members   int
	Rounds    int
	TotalGain float64
}

// Status returns the roster size, round count, and accumulated gain as
// one atomic snapshot. Prefer it over separate Len/Rounds/TotalGain
// calls whenever the three values are reported together: those take
// the lock three times, and a concurrent round between acquisitions
// yields a torn read.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{Members: len(s.members), Rounds: s.rounds, TotalGain: s.total}
}

// Get returns a snapshot of one participant.
func (s *Session) Get(id ParticipantID) (Participant, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.members[id]
	if !ok {
		return Participant{}, false
	}
	return p.Participant, true
}

// RoundReport summarizes one RunRound call.
type RoundReport struct {
	// Round is the 1-based round number.
	Round int
	// Participated and SatOut count the roster split this round.
	Participated, SatOut int
	// Groups is the number of groups formed.
	Groups int
	// Gain is the round's aggregated learning gain.
	Gain float64
	// Attempts counts how many grouping attempts the round took: 1 is a
	// clean optimistic pass, >1 means concurrent roster churn invalidated
	// a snapshot and the round retried (pessimistically after
	// maxOptimistic optimistic losses).
	Attempts int
}

// SetMetrics attaches (or, with nil, detaches) round telemetry.
func (s *Session) SetMetrics(m *Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = m
}

// SetEventSink attaches (or, with nil, detaches) a durable event sink.
// Mutations that race the SetEventSink call itself may or may not be
// observed; attach the sink before serving traffic.
func (s *Session) SetEventSink(sink EventSink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = sink
}

// RoundStage identifies where in an optimistic round a RoundHook fires.
type RoundStage int

const (
	// StageSnapshotted fires after a round has snapshotted the seated
	// roster and released the session lock, before the grouping
	// computation starts. A hook that mutates the roster here models a
	// concurrent client racing the round.
	StageSnapshotted RoundStage = iota
	// StageComputed fires after the grouping and gain computation, still
	// outside the session lock, just before the round re-validates its
	// snapshot. A roster mutation here is guaranteed to hit the
	// optimistic re-validation window.
	StageComputed
)

// RoundHook observes the lock-free window of an optimistic round. It is
// invoked with no session locks held, so it may call Join, Leave, and
// the read accessors; it must not call RunRound (rounds do not nest).
type RoundHook func(stage RoundStage)

// SetRoundHook installs (or, with nil, removes) a hook into the
// optimistic round's lock-free window. It exists for deterministic
// simulation testing: a scheduler can force the exact interleavings —
// a seated participant leaving mid-computation, a join racing the
// apply — that wall-clock concurrency only reaches by luck. The
// pessimistic fallback path never fires the hook; its critical section
// admits no interleaving to simulate.
func (s *Session) SetRoundHook(h RoundHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.roundHook = h
}

// Snapshot returns a copy of every participant, sorted by id. It is a
// read-only view for invariant checkers and status pages; mutating the
// returned slice does not affect the session.
func (s *Session) Snapshot() []Participant {
	s.mu.Lock()
	out := make([]Participant, 0, len(s.members))
	for _, p := range s.order {
		out = append(out, p.Participant)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b Participant) int { return int(a.ID - b.ID) })
	return out
}

// roundScratch holds one round's buffers: the seated members, their
// skills (updated in place by the workspace), the seat ids handed to
// the event sink, and the core workspace that applies the round. It is
// owned by one RunRound call at a time (see Session.scratch).
type roundScratch struct {
	seats  []*member
	skills core.Skills
	ids    []int64
	ws     *core.Workspace
}

// maxOptimistic bounds the optimistic grouping attempts before a round
// falls back to grouping under the session lock, guaranteeing progress
// when the roster churns faster than the policy computes.
const maxOptimistic = 4

// RunRound groups the current roster and applies one learning round.
// If fewer than one full group is present it returns an error and
// changes nothing. When the roster does not divide evenly, the members
// who have participated in the fewest rounds (ties: earliest joiners,
// then lowest id) are seated first; the remainder sit out.
//
// The grouping computation — the expensive part for large rosters —
// runs outside the session lock on a snapshot of the seated roster, so
// concurrent Join/Leave/status calls are not stalled for its duration.
// The result is applied only if no leave and no other round has landed
// since the snapshot (a join cannot invalidate it: the joiner just sits
// this round out); a lost race retries, and after maxOptimistic retries
// the round completes under the lock.
func (s *Session) RunRound() (*RoundReport, error) {
	s.mu.Lock()
	sc := s.scratch
	s.scratch = nil
	s.mu.Unlock()
	if sc == nil {
		sc = &roundScratch{ws: core.NewWorkspace()}
	}
	for attempt := 0; ; attempt++ {
		report, retry, err := s.runRoundOnce(sc, attempt >= maxOptimistic)
		if retry {
			continue
		}
		m := s.checkin(sc)
		if err == nil {
			report.Attempts = attempt + 1
			recordRound(m, report)
		}
		return report, err
	}
}

// checkin returns a round's scratch to the session, unless a
// concurrent round got there first, and reads the telemetry sink for
// the round. A round that panics in the policy never checks its
// scratch in; the next round allocates a fresh one.
func (s *Session) checkin(sc *roundScratch) *Metrics {
	clear(sc.seats) // do not keep departed members reachable
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.scratch == nil {
		s.scratch = sc
	}
	return s.metrics
}

// runRoundOnce makes one attempt at a round. With pessimistic set the
// session lock stays held from snapshot to apply, so the attempt cannot
// lose a race — the grouping and gain computation runs inside the
// critical section, the price of guaranteed progress. Otherwise the
// lock is released around that computation and retry=true means the
// snapshot went stale and the caller should try again.
func (s *Session) runRoundOnce(sc *roundScratch, pessimistic bool) (report *RoundReport, retry bool, err error) {
	if pessimistic {
		return s.runRoundPessimistic(sc)
	}
	return s.runRoundOptimistic(sc)
}

func (s *Session) runRoundOptimistic(sc *roundScratch) (report *RoundReport, retry bool, err error) {
	s.mu.Lock()
	hook := s.roundHook
	epoch := s.epoch
	k, satOut, err := s.seatLocked(sc)
	s.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	if hook != nil {
		hook(StageSnapshotted)
	}

	// The expensive part runs on the snapshot with the session open for
	// Join/Leave.
	grouping, gain, err := s.computeRound(sc, k)
	if err != nil {
		return nil, false, err
	}
	if hook != nil {
		hook(StageComputed)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch != epoch {
		return nil, true, nil
	}
	report, err = s.applyLocked(sc, grouping, gain, k, satOut)
	return report, false, err
}

func (s *Session) runRoundPessimistic(sc *roundScratch) (report *RoundReport, retry bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k, satOut, err := s.seatLocked(sc)
	if err != nil {
		return nil, false, err
	}
	grouping, gain, err := s.computeRound(sc, k)
	if err != nil {
		return nil, false, err
	}
	report, err = s.applyLocked(sc, grouping, gain, k, satOut)
	return report, false, err
}

// computeRound runs the per-round computation on a snapshot: grouping,
// validation, and the gain update, which overwrites sc.skills with the
// post-round skills. Policy, mode, and rate are immutable after
// NewSession and the scratch is owned by the caller, so this reads no
// session state that needs mu — the optimistic path calls it with the
// lock released.
func (s *Session) computeRound(sc *roundScratch, k int) (core.Grouping, float64, error) {
	grouping := s.group(sc.skills, k)
	if err := sc.ws.ValidateEqui(grouping, len(sc.skills), k); err != nil {
		return nil, 0, fmt.Errorf("matchmaker: policy %s produced an invalid grouping: %w", s.policyName(), err)
	}
	gain, err := sc.ws.ApplyRoundInPlace(sc.skills, grouping, s.mode, s.gain)
	if err != nil {
		return nil, 0, err
	}
	return grouping, gain, nil
}

// applyLocked installs the computed skills into the roster, rebuilds
// the seat order, and builds the report (callers hold mu). With an
// event sink attached the round is logged first; a sink failure aborts
// the apply with the roster untouched, so durable state never lags
// live state.
func (s *Session) applyLocked(sc *roundScratch, grouping core.Grouping, gain float64, k, satOut int) (*RoundReport, error) {
	round := s.rounds + 1
	if s.sink != nil {
		sc.ids = sc.ids[:0]
		for _, p := range sc.seats {
			sc.ids = append(sc.ids, int64(p.ID))
		}
		//peerlint:allow lockheld — sink appends must happen under mu so WAL order equals apply order; see EventSink contract
		if err := s.sink.RoundApplied(RoundRecord{Round: round, Seated: sc.ids, Grouping: grouping, Gain: gain}); err != nil {
			return nil, fmt.Errorf("matchmaker: round not durable: %w", err)
		}
	}
	for i, p := range sc.seats {
		p.TotalGain += sc.skills[i] - p.Skill
		p.Skill = sc.skills[i]
		p.RoundsPlayed++
		p.seatedRound = round
	}
	s.reorderLocked(sc.seats, round)
	s.rounds = round
	s.total += gain
	s.epoch++
	return &RoundReport{
		Round:        round,
		Participated: len(sc.seats),
		SatOut:       satOut,
		Groups:       k,
		Gain:         gain,
	}, nil
}

// reorderLocked restores the seat order after a round (callers hold
// mu). The seated members all moved up one round but kept their
// relative order, and the unseated ones did not move, so the new order
// is one linear merge of two sorted runs.
func (s *Session) reorderLocked(seated []*member, round int) {
	next := s.spare[:0]
	i := 0
	for _, p := range s.order {
		if p.seatedRound == round {
			continue
		}
		for i < len(seated) && seatCmp(seated[i], p) < 0 {
			next = append(next, seated[i])
			i++
		}
		next = append(next, p)
	}
	next = append(next, seated[i:]...)
	clear(s.order) // do not keep departed members reachable
	s.spare = s.order[:0]
	s.order = next
}

// recordRound emits round telemetry after the session lock is released:
// the counters are monotonic and scraped asynchronously, so they need
// not be atomic with the apply.
func recordRound(m *Metrics, r *RoundReport) {
	if m == nil {
		return
	}
	m.Rounds.Inc()
	m.Seated.Add(uint64(r.Participated))
	m.SatOut.Add(uint64(r.SatOut))
	m.RoundGain.Observe(r.Gain)
}

// seatLocked snapshots the seated roster into sc (callers hold mu):
// the first whole number of groups in seat order and their skills. It
// returns the group count and how many sit out.
func (s *Session) seatLocked(sc *roundScratch) (k, satOut int, err error) {
	n := len(s.order)
	if n < s.groupSize {
		return 0, 0, fmt.Errorf("matchmaker: %d present, need at least %d for one group", n, s.groupSize)
	}
	m := (n / s.groupSize) * s.groupSize
	sc.seats = append(sc.seats[:0], s.order[:m]...)
	sc.skills = sc.skills[:0]
	for _, p := range sc.seats {
		sc.skills = append(sc.skills, p.Skill)
	}
	return m / s.groupSize, n - m, nil
}

// group serializes access to the policy, which may own mutable state.
func (s *Session) group(skills core.Skills, k int) core.Grouping {
	s.policyMu.Lock()
	defer s.policyMu.Unlock()
	//peerlint:allow lockheld — policyMu exists to serialize this exact call; it guards no other state
	return s.policy.Group(skills, k)
}

// policyName reads the policy's name under policyMu: Name is an
// interface dispatch into the same object Group mutates, so even the
// error path must serialize with a concurrent grouping.
func (s *Session) policyName() string {
	s.policyMu.Lock()
	defer s.policyMu.Unlock()
	//peerlint:allow lockheld — policyMu serializes every dispatch into the policy; Name does no blocking work
	return s.policy.Name()
}
