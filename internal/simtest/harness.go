package simtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"peerlearn/internal/core"
	"peerlearn/internal/dygroups"
	"peerlearn/internal/matchmaker"
	"peerlearn/internal/metrics"
	"peerlearn/internal/server"
)

// Config parameterizes one simulation run. The zero value is not
// usable; withDefaults fills every unset knob, so Config{Seed: s} is a
// complete configuration.
type Config struct {
	// Seed determines everything: the schedule, the fault placement,
	// the skills. Same seed, same run.
	Seed int64
	// Ops is the schedule length (default 200).
	Ops int
	// Clients is how many concurrent clients the scheduler simulates
	// (default 4).
	Clients int
	// GroupSize is the cohort's group size (default 3).
	GroupSize int
	// Mode is the interaction mode (default Star).
	Mode core.Mode
	// Rate is the linear learning rate (default 0.5).
	Rate float64
	// Faults enables fault kinds for the generator (default none; see
	// AllFaults and ParseFaults).
	Faults []Fault
	// InitialCohort joins this many participants before the schedule
	// starts (default 2×GroupSize); the no-starvation bound is checked
	// over the ones that never leave.
	InitialCohort int
	// CheckEvery is the full-invariant-check cadence in ops (default
	// 16); cheap conservation checks run after every op regardless.
	CheckEvery int
	// DataDir is the directory for the session journal. When empty and
	// FaultCrash is enabled, Run journals into a throwaway temp
	// directory it removes at the end; without FaultCrash the store
	// stays in-memory.
	DataDir string
}

// withDefaults returns cfg with every unset field defaulted.
func (c Config) withDefaults() Config {
	if c.Ops <= 0 {
		c.Ops = 200
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.GroupSize < 2 {
		c.GroupSize = 3
	}
	if c.Rate <= 0 || c.Rate > 1 {
		c.Rate = 0.5
	}
	if c.InitialCohort <= 0 {
		c.InitialCohort = 2 * c.GroupSize
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 16
	}
	return c
}

// Report is the outcome of one simulation run.
type Report struct {
	// Seed replays the run: Generate(Config{Seed: Seed, ...}) rebuilds
	// the exact schedule.
	Seed int64
	// Ops counts executed schedule entries; Rounds counts successful
	// learning rounds.
	Ops, Rounds int
	// FaultsFired counts injected faults that actually triggered.
	FaultsFired map[Fault]int
	// Failures lists invariant violations; empty means the run passed.
	Failures []string
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Failures) > 0 }

// Summary renders a one-line digest.
func (r *Report) Summary() string {
	status := "ok"
	if r.Failed() {
		status = fmt.Sprintf("FAIL (%d violations)", len(r.Failures))
	}
	return fmt.Sprintf("seed=%d ops=%d rounds=%d faults[%s] %s",
		r.Seed, r.Ops, r.Rounds, FaultCounts(r.FaultsFired), status)
}

// RunSeed generates the schedule for cfg and runs it: the whole
// simulation as a function of the seed.
func RunSeed(cfg Config) *Report {
	return Run(cfg, Generate(cfg))
}

// basePolicy returns the deterministic grouping policy for a mode.
func basePolicy(mode core.Mode) core.Grouper {
	if mode == core.Clique {
		return dygroups.NewClique()
	}
	return dygroups.NewStar()
}

// world is one simulation's wiring: the real serving stack on one
// side, the reference model and invariant checker on the other.
type world struct {
	cfg     Config
	clock   *Virtual
	handler http.Handler
	store   *server.SessionStore
	session *matchmaker.Session
	model   *Model
	policy  *faultyPolicy
	checker *Checker
	sid     int64
	counts  Counts
	rep     *Report
	// reg and rid survive crash faults: a reboot replaces the process
	// state (store, handler, session) but observability is continuous —
	// the metrics invariant sums requests and rounds across reboots.
	reg *metrics.Registry
	rid int
	// journal is the durable side of the store; non-nil iff the run has
	// a data dir (always the case when FaultCrash is enabled). tmpDir is
	// the throwaway journal dir Run owns and removes, if any.
	journal *server.Journal
	tmpDir  string
}

// Run executes a schedule against a freshly wired serving stack and
// returns the report. Execution is deterministic: same cfg and
// schedule, same report (bit for bit, gains included).
func Run(cfg Config, ops []Op) *Report {
	cfg = cfg.withDefaults()
	w, err := newWorld(cfg)
	if err != nil {
		// Wiring failures are harness bugs, not invariant violations,
		// but they must still surface through the report.
		return &Report{Seed: cfg.Seed, FaultsFired: map[Fault]int{},
			Failures: []string{fmt.Sprintf("world setup: %v", err)}}
	}
	if w.tmpDir != "" {
		defer os.RemoveAll(w.tmpDir)
	}
	for i, op := range ops {
		w.step(i, op)
		w.rep.Ops++
		// Cheap conservation probe after every op; the full agreement
		// sweep runs on the CheckEvery cadence.
		if got, want := w.session.Len(), w.model.Len(); got != want {
			w.checker.failf("op %d: session roster %d != model roster %d", i, got, want)
		}
		if (i+1)%cfg.CheckEvery == 0 {
			w.fullCheck(i)
		}
	}
	w.fullCheck(len(ops))
	w.counts.Panics = w.policy.panics
	w.checker.CheckMetrics(w.scrape(), w.counts)
	w.rep.Failures = w.checker.Violations()
	return w.rep
}

// newWorld wires the serving stack, creates the cohort session over
// HTTP, and seats the initial cohort.
func newWorld(cfg Config) (*world, error) {
	w := &world{
		cfg:     cfg,
		clock:   NewVirtual(SimEpoch),
		policy:  &faultyPolicy{base: basePolicy(cfg.Mode)},
		model:   NewModel(cfg.GroupSize, cfg.Mode, core.MustLinear(cfg.Rate), basePolicy(cfg.Mode)),
		checker: NewChecker(cfg.GroupSize),
		rep:     &Report{Seed: cfg.Seed, FaultsFired: make(map[Fault]int)},
		reg:     metrics.NewRegistry(),
	}
	w.clock.SetStep(time.Millisecond)
	if dir := cfg.DataDir; dir != "" || hasFault(cfg.Faults, FaultCrash) {
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "simtest-journal-"); err != nil {
				return nil, fmt.Errorf("journal temp dir: %w", err)
			}
			w.tmpDir = dir
		}
		j, err := server.OpenJournal(dir)
		if err != nil {
			return nil, fmt.Errorf("opening journal: %w", err)
		}
		// Compact well within a default-length run so crash faults also
		// exercise snapshot + WAL-suffix recovery, not just pure replay.
		j.SnapshotEvery = 32
		w.journal = j
	}
	w.wireStack()

	var created struct {
		ID int64 `json:"id"`
	}
	rr := w.do(http.MethodPost, "/v1/sessions", map[string]any{
		"group_size": cfg.GroupSize,
		"mode":       cfg.Mode.String(),
		"rate":       cfg.Rate,
	})
	if rr.Code != http.StatusCreated {
		return nil, fmt.Errorf("creating session: status %d: %s", rr.Code, rr.Body)
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &created); err != nil {
		return nil, fmt.Errorf("decoding create response: %w", err)
	}
	w.sid = created.ID
	sess, ok := w.store.Session(w.sid)
	if !ok {
		return nil, fmt.Errorf("store lost session %d", w.sid)
	}
	w.session = sess

	// The initial cohort joins before the schedule; its skills come
	// from a seed-derived stream independent of the generator's.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eedc0de))
	for i := 0; i < cfg.InitialCohort; i++ {
		id := w.join(-1-i, randSkill(rng))
		if id != 0 {
			w.checker.AddCohort(id)
		}
	}
	return w, nil
}

// hasFault reports whether f is enabled in fs.
func hasFault(fs []Fault, f Fault) bool {
	for _, g := range fs {
		if g == f {
			return true
		}
	}
	return false
}

// wireStack builds a fresh store and handler over the world's
// persistent pieces: the registry, the virtual clock, the request-id
// counter, and the journal. Called once at setup and again after every
// crash fault — a reboot replaces the process state but keeps the
// durable and observable state.
func (w *world) wireStack() {
	w.store = server.NewSessionStore()
	w.store.SetPolicyFactory(func(string, core.Mode, int64) (core.Grouper, error) {
		return w.policy, nil
	})
	if w.journal != nil {
		w.store.AttachJournal(w.journal)
	}
	w.handler = server.New(w.store, server.Options{
		Registry: w.reg,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		Clock:    w.clock,
		RequestID: func() string {
			w.rid++
			return fmt.Sprintf("sim-%06d", w.rid)
		},
	})
}

// crash is FaultCrash's payload: a SIGKILL-equivalent death in the
// middle of a WAL append — the store's file handles drop without close
// events and the session's WAL gains a torn final line — followed by a
// reboot over the same journal. The reference model sails over the
// crash untouched, so the status probe after recovery checks the
// replayed gain bit for bit and the ensuing fullCheck compares every
// recovered skill.
func (w *world) crash(i int) {
	if w.journal == nil {
		w.checker.failf("op %d: crash fault without a journal (harness bug)", i)
		return
	}
	// Tear the WAL tail: a partial line with no newline is exactly what
	// a kill -9 mid-write leaves behind.
	f, err := os.OpenFile(w.journal.WALPath(w.sid), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.checker.failf("op %d: tearing WAL: %v", i, err)
		return
	}
	if _, err := f.WriteString(`{"kind":"round","seq":`); err != nil {
		w.checker.failf("op %d: tearing WAL: %v", i, err)
	}
	f.Close()

	w.store.Crash()
	w.wireStack()
	if _, err := w.store.Recover(); err != nil {
		w.checker.failf("op %d: recovery after crash: %v", i, err)
		return
	}
	sess, ok := w.store.Session(w.sid)
	if !ok {
		w.checker.failf("op %d: session %d lost across crash/reboot", i, w.sid)
		return
	}
	w.session = sess
	// The reboot must come back bit-identical to the reference model.
	w.status(i)
	w.fullCheck(i)
}

// do issues one HTTP request against the stack and returns the
// recorder. Requests to routes behind the middleware are counted for
// the metrics invariant; /metrics itself is mounted outside it.
func (w *world) do(method, path string, body any) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			w.checker.failf("marshal %s %s body: %v", method, path, err)
			b = []byte("{}")
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	rr := httptest.NewRecorder()
	w.handler.ServeHTTP(rr, req)
	if path != "/metrics" {
		w.counts.HTTPRequests++
	}
	return rr
}

// sessionPath builds a session sub-route.
func (w *world) sessionPath(action string) string {
	p := fmt.Sprintf("/v1/sessions/%d", w.sid)
	if action != "" {
		p += "/" + action
	}
	return p
}

// join executes one join against both stacks and returns the assigned
// id (0 on failure). at is the op index for violation messages.
func (w *world) join(at int, skill float64) matchmaker.ParticipantID {
	rr := w.do(http.MethodPost, w.sessionPath("join"), map[string]any{"skill": skill})
	if rr.Code != http.StatusOK {
		w.checker.failf("op %d: join returned %d: %s", at, rr.Code, rr.Body)
		return 0
	}
	var resp struct {
		ParticipantID int64 `json:"participant_id"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		w.checker.failf("op %d: decoding join response: %v", at, err)
		return 0
	}
	want, err := w.model.Join(skill)
	if err != nil {
		w.checker.failf("op %d: model rejected join(%v): %v", at, skill, err)
		return 0
	}
	if matchmaker.ParticipantID(resp.ParticipantID) != want {
		w.checker.failf("op %d: join assigned id %d, model expected %d", at, resp.ParticipantID, want)
	}
	return want
}

// step executes one schedule entry.
func (w *world) step(i int, op Op) {
	switch op.Kind {
	case OpJoin:
		w.join(i, op.Skill)
	case OpLeave:
		w.leave(i, op)
	case OpRound:
		w.round(i, op)
	case OpStatus:
		w.status(i)
	case OpScrape:
		body := w.scrape()
		if w.model.Rounds() > 0 && !strings.Contains(body, "peerlearn_matchmaker_rounds_total") {
			w.checker.failf("op %d: /metrics lost the matchmaker round counter", i)
		}
	default:
		w.checker.failf("op %d: unknown op kind %d", i, op.Kind)
	}
}

// leave resolves the target against the live roster and executes it.
func (w *world) leave(i int, op Op) {
	ids := w.model.IDs()
	if len(ids) == 0 {
		return // nobody to leave; the op degenerates to a no-op
	}
	id := ids[op.Target%len(ids)]
	rr := w.do(http.MethodPost, w.sessionPath("leave"), map[string]any{"participant_id": int64(id)})
	if rr.Code != http.StatusOK {
		w.checker.failf("op %d: leave(%d) returned %d: %s", i, id, rr.Code, rr.Body)
		return
	}
	if err := w.model.Leave(id); err != nil {
		w.checker.failf("op %d: model rejected leave(%d): %v", i, id, err)
	}
	w.checker.Left(id)
}

// status cross-checks the status page against the model, including the
// accumulated gain bit for bit (encoding/json round-trips float64
// exactly).
func (w *world) status(i int) {
	rr := w.do(http.MethodGet, w.sessionPath(""), nil)
	if rr.Code != http.StatusOK {
		w.checker.failf("op %d: status returned %d: %s", i, rr.Code, rr.Body)
		return
	}
	var st struct {
		Members   int     `json:"members"`
		Rounds    int     `json:"rounds"`
		TotalGain float64 `json:"total_gain"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		w.checker.failf("op %d: decoding status: %v", i, err)
		return
	}
	if st.Members != w.model.Len() {
		w.checker.failf("op %d: status members %d != model %d", i, st.Members, w.model.Len())
	}
	if st.Rounds != w.model.Rounds() {
		w.checker.failf("op %d: status rounds %d != model %d", i, st.Rounds, w.model.Rounds())
	}
	if math.Float64bits(st.TotalGain) != math.Float64bits(w.model.TotalGain()) {
		w.checker.failf("op %d: status total gain %v != model %v", i, st.TotalGain, w.model.TotalGain())
	}
}

// round executes one round trigger with its fault, mirrors the outcome
// on the model, and checks the per-round invariants.
func (w *world) round(i int, op Op) {
	fault := op.Fault
	// Faults that need the policy or the mid-round window only fire if
	// the round will actually get that far; on a too-small roster the
	// seating fails first and the trigger degrades to a plain (failing)
	// round.
	armable := w.model.Len() >= w.cfg.GroupSize
	staleVictim := matchmaker.ParticipantID(0)
	staleFired := false
	switch fault {
	case FaultDrop:
		w.rep.FaultsFired[FaultDrop]++
		return // the trigger never arrives
	case FaultCrash:
		// The trigger dies with the process; what runs instead is a
		// kill -9 plus reboot-with-replay.
		w.rep.FaultsFired[FaultCrash]++
		w.crash(i)
		return
	case FaultPanic:
		if armable {
			w.policy.armPanic = true
		}
	case FaultBadGrouping:
		if armable {
			w.policy.armBad = true
		}
	case FaultStaleSeat:
		if armable {
			victim, ok := w.model.SeatedFirst()
			if !ok {
				break
			}
			staleVictim = victim
			w.session.SetRoundHook(func(stage matchmaker.RoundStage) {
				if stage == matchmaker.StageComputed && !staleFired {
					staleFired = true
					if err := w.session.Leave(victim); err != nil {
						w.checker.failf("op %d: mid-round leave(%d): %v", i, victim, err)
					}
				}
			})
		}
	default:
		// FaultNone and FaultDelay need no arming here (a delayed round
		// was already displaced in the schedule; a storm expands at
		// generation time).
	}

	rr := w.do(http.MethodPost, w.sessionPath("round"), nil)
	w.session.SetRoundHook(nil)

	if fault == FaultPanic && armable {
		// The injected panic must be recovered into a 500 envelope and
		// leave the cohort untouched and fully operational.
		w.rep.FaultsFired[FaultPanic]++
		if rr.Code != http.StatusInternalServerError {
			w.checker.failf("op %d: injected panic yielded status %d, want 500", i, rr.Code)
		}
		return
	}
	if fault == FaultBadGrouping && armable {
		// The invalid grouping must be rejected as a round error, not
		// applied and not crash.
		w.rep.FaultsFired[FaultBadGrouping]++
		if rr.Code != http.StatusConflict {
			w.checker.failf("op %d: invalid grouping yielded status %d, want 409", i, rr.Code)
		}
		if !strings.Contains(rr.Body.String(), "invalid grouping") {
			w.checker.failf("op %d: invalid-grouping error lost its cause: %s", i, rr.Body)
		}
		return
	}
	if staleVictim != 0 {
		w.rep.FaultsFired[FaultStaleSeat]++
		if !staleFired {
			w.checker.failf("op %d: stale-seat hook never fired", i)
		} else {
			// The mid-round departure serializes before the round's
			// effective (retried) execution.
			if err := w.model.Leave(staleVictim); err != nil {
				w.checker.failf("op %d: model rejected stale leave(%d): %v", i, staleVictim, err)
			}
			w.checker.Left(staleVictim)
		}
	}
	if fault == FaultDelay {
		w.rep.FaultsFired[FaultDelay]++
	}
	if fault == FaultStorm {
		w.rep.FaultsFired[FaultStorm]++
	}

	rosterBefore := w.model.Len()
	modelRep, modelErr := w.model.RunRound()
	if modelErr != nil {
		if rr.Code != http.StatusConflict {
			w.checker.failf("op %d: round should fail (%v) but returned %d: %s", i, modelErr, rr.Code, rr.Body)
		}
		return
	}
	if rr.Code != http.StatusOK {
		w.checker.failf("op %d: round returned %d, model succeeded: %s", i, rr.Code, rr.Body)
		return
	}
	var resp struct {
		Round        int     `json:"round"`
		Participated int     `json:"participated"`
		SatOut       int     `json:"sat_out"`
		Groups       int     `json:"groups"`
		Gain         float64 `json:"gain"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		w.checker.failf("op %d: decoding round response: %v", i, err)
		return
	}
	got := &matchmaker.RoundReport{Round: resp.Round, Participated: resp.Participated,
		SatOut: resp.SatOut, Groups: resp.Groups, Gain: resp.Gain}
	if got.Round != modelRep.Round || got.Participated != modelRep.Participated ||
		got.SatOut != modelRep.SatOut || got.Groups != modelRep.Groups ||
		math.Float64bits(got.Gain) != math.Float64bits(modelRep.Gain) {
		w.checker.failf("op %d: round report %+v != model %+v", i, *got, *modelRep)
	}
	w.checker.CheckRound(i, got, rosterBefore)
	w.counts.Rounds++
	w.counts.Seated += got.Participated
	w.counts.SatOut += got.SatOut
	w.rep.Rounds++
}

// fullCheck runs the snapshot-based invariants.
func (w *world) fullCheck(at int) {
	snap := w.session.Snapshot()
	w.checker.CheckAgreement(at, snap, w.model)
	w.checker.CheckJoinOrder(at, snap)
	w.checker.CheckMonotone(at, snap)
	w.checker.CheckStarvation(at, snap)
}

// scrape fetches the exposition text.
func (w *world) scrape() string {
	rr := w.do(http.MethodGet, "/metrics", nil)
	return rr.Body.String()
}
