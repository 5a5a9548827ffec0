package simtest

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"peerlearn/internal/core"
	"peerlearn/internal/matchmaker"
)

func allFaultCfg(seed int64) Config {
	return Config{Seed: seed, Ops: 300, Faults: AllFaults}
}

func TestGenerateIsDeterministic(t *testing.T) {
	cfg := allFaultCfg(42)
	a, b := Generate(cfg), Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate is not a pure function of the config")
	}
	if FormatOps(a) != FormatOps(b) {
		t.Fatal("schedule dumps differ for the same seed")
	}
	if len(a) != cfg.Ops {
		t.Fatalf("generated %d ops, want %d", len(a), cfg.Ops)
	}
	c := Generate(allFaultCfg(43))
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 42 and 43 generated identical schedules")
	}
}

func TestRunSeedHoldsInvariantsUnderAllFaults(t *testing.T) {
	fired := make(map[Fault]int)
	rounds := 0
	for seed := int64(1); seed <= 8; seed++ {
		rep := RunSeed(allFaultCfg(seed))
		if rep.Failed() {
			t.Errorf("seed %d: %d invariant violations, first: %s", seed, len(rep.Failures), rep.Failures[0])
		}
		for f, n := range rep.FaultsFired {
			fired[f] += n
		}
		rounds += rep.Rounds
	}
	if rounds == 0 {
		t.Fatal("no learning round succeeded across 8 seeds; the generator is broken")
	}
	for _, f := range AllFaults {
		if fired[f] == 0 {
			t.Errorf("fault %s never fired across 8 seeds", f)
		}
	}
}

func TestRunReplaysByteIdentically(t *testing.T) {
	cfg := allFaultCfg(7)
	ops := Generate(cfg)
	a, b := Run(cfg, ops), Run(cfg, ops)
	if a.Summary() != b.Summary() {
		t.Fatalf("replay diverged:\n%s\n%s", a.Summary(), b.Summary())
	}
	if !reflect.DeepEqual(a.Failures, b.Failures) || !reflect.DeepEqual(a.FaultsFired, b.FaultsFired) {
		t.Fatal("replay produced different failures or fault counts")
	}
}

func TestRunCliqueMode(t *testing.T) {
	rep := RunSeed(Config{Seed: 3, Ops: 200, Mode: core.Clique, Faults: AllFaults})
	if rep.Failed() {
		t.Fatalf("clique run failed: %s", rep.Failures[0])
	}
	if rep.Rounds == 0 {
		t.Fatal("clique run completed no rounds")
	}
}

// TestCrashFaultRecoversBitExactly runs crash-only schedules: every
// fired fault is a kill -9 mid-WAL-append plus a reboot that replays
// the journal, and the harness cross-checks the recovered state
// (members, rounds, total gain, every skill) bit for bit against the
// reference model, which sails over the crash untouched.
func TestCrashFaultRecoversBitExactly(t *testing.T) {
	fired := 0
	for seed := int64(1); seed <= 4; seed++ {
		rep := RunSeed(Config{Seed: seed, Ops: 250, Faults: []Fault{FaultCrash}})
		if rep.Failed() {
			t.Errorf("seed %d: %d violations, first: %s", seed, len(rep.Failures), rep.Failures[0])
		}
		fired += rep.FaultsFired[FaultCrash]
	}
	if fired == 0 {
		t.Fatal("crash fault never fired across 4 seeds")
	}
}

// TestCrashFaultJournalsIntoDataDir pins the DataDir knob: the journal
// lands in the caller's directory (and survives the run for post-hoc
// inspection) instead of a throwaway temp dir.
func TestCrashFaultJournalsIntoDataDir(t *testing.T) {
	dir := t.TempDir()
	rep := RunSeed(Config{Seed: 5, Ops: 120, Faults: []Fault{FaultCrash}, DataDir: dir})
	if rep.Failed() {
		t.Fatalf("run failed: %s", rep.Failures[0])
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no journal files written to DataDir")
	}
}

func TestVirtualClock(t *testing.T) {
	v := NewVirtual(SimEpoch)
	if !v.Now().Equal(SimEpoch) {
		t.Fatal("fresh clock does not read its start time")
	}
	v.Advance(time.Hour)
	if got := v.Peek(); !got.Equal(SimEpoch.Add(time.Hour)) {
		t.Fatalf("after Advance(1h): %v", got)
	}
	v.SetStep(time.Second)
	first := v.Now()
	second := v.Now()
	if d := second.Sub(first); d != time.Second {
		t.Fatalf("auto-advance step = %v, want 1s", d)
	}
	v.SetStep(0)
	if !v.Now().Equal(v.Now()) {
		t.Fatal("step 0 should freeze the clock")
	}
}

func TestInterleavePreservesClientOrder(t *testing.T) {
	streams := [][]Op{
		{{Client: 0, Kind: OpJoin}, {Client: 0, Kind: OpRound}, {Client: 0, Kind: OpStatus}},
		{{Client: 1, Kind: OpLeave}, {Client: 1, Kind: OpScrape}},
	}
	out := NewSched(5).Interleave(streams)
	if len(out) != 5 {
		t.Fatalf("interleaving lost ops: %d", len(out))
	}
	var c0, c1 []OpKind
	for _, op := range out {
		if op.Client == 0 {
			c0 = append(c0, op.Kind)
		} else {
			c1 = append(c1, op.Kind)
		}
	}
	if !reflect.DeepEqual(c0, []OpKind{OpJoin, OpRound, OpStatus}) {
		t.Fatalf("client 0 program order broken: %v", c0)
	}
	if !reflect.DeepEqual(c1, []OpKind{OpLeave, OpScrape}) {
		t.Fatalf("client 1 program order broken: %v", c1)
	}
	again := NewSched(5).Interleave(streams)
	if !reflect.DeepEqual(out, again) {
		t.Fatal("same seed produced a different interleaving")
	}
}

func TestParseFaults(t *testing.T) {
	all, err := ParseFaults("all")
	if err != nil || !reflect.DeepEqual(all, AllFaults) {
		t.Fatalf("ParseFaults(all) = %v, %v", all, err)
	}
	none, err := ParseFaults("none")
	if err != nil || none != nil {
		t.Fatalf("ParseFaults(none) = %v, %v", none, err)
	}
	two, err := ParseFaults("panic, staleseat")
	if err != nil || !reflect.DeepEqual(two, []Fault{FaultPanic, FaultStaleSeat}) {
		t.Fatalf("ParseFaults(panic, staleseat) = %v, %v", two, err)
	}
	if _, err := ParseFaults("meteor"); err == nil {
		t.Fatal("unknown fault accepted")
	}
}

// TestHarnessDetectsDivergence proves the checker is not vacuous: a
// participant injected into the real session behind the model's back
// must surface as a conservation violation.
func TestHarnessDetectsDivergence(t *testing.T) {
	w, err := newWorld(Config{Seed: 11}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.session.Join(0.9); err != nil { // bypasses the model
		t.Fatal(err)
	}
	w.fullCheck(0)
	if len(w.checker.Violations()) == 0 {
		t.Fatal("checker missed a session/model roster divergence")
	}
}

func TestCheckerDetectsBadMetrics(t *testing.T) {
	c := NewChecker(3)
	expo := strings.Join([]string{
		`peerlearn_matchmaker_rounds_total 3`,
		`peerlearn_matchmaker_participants_seated_total 9`,
		`peerlearn_matchmaker_participants_sat_out_total 1`,
		`peerlearn_matchmaker_round_gain_bucket{le="0.1"} 2`,
		`peerlearn_matchmaker_round_gain_bucket{le="+Inf"} 3`,
		`peerlearn_matchmaker_round_gain_count 3`,
		`peerlearn_http_panics_total 0`,
		`peerlearn_http_in_flight_requests 0`,
		`peerlearn_http_requests_total{route="/healthz"} 5`,
	}, "\n")
	c.CheckMetrics(expo, Counts{Rounds: 3, Seated: 9, SatOut: 1, HTTPRequests: 5})
	if n := len(c.Violations()); n != 0 {
		t.Fatalf("consistent exposition flagged: %v", c.Violations())
	}
	c = NewChecker(3)
	c.CheckMetrics(expo, Counts{Rounds: 4, Seated: 9, SatOut: 1, HTTPRequests: 5})
	if len(c.Violations()) == 0 {
		t.Fatal("round-count mismatch not flagged")
	}
	c = NewChecker(3)
	bad := strings.Replace(expo, `le="+Inf"} 3`, `le="+Inf"} 1`, 1)
	c.CheckMetrics(bad, Counts{Rounds: 3, Seated: 9, SatOut: 1, HTTPRequests: 5})
	if len(c.Violations()) == 0 {
		t.Fatal("non-cumulative histogram not flagged")
	}
}

func TestCheckerDetectsStarvationAndRegression(t *testing.T) {
	c := NewChecker(3)
	c.AddCohort(1)
	c.AddCohort(2)
	parts := []matchmaker.Participant{
		{ID: 1, Skill: 1.0, RoundsPlayed: 5},
		{ID: 2, Skill: 1.0, RoundsPlayed: 2},
	}
	c.CheckStarvation(0, parts)
	if len(c.Violations()) == 0 {
		t.Fatal("rounds-played spread of 3 not flagged")
	}

	c = NewChecker(3)
	p := []matchmaker.Participant{{ID: 1, Skill: 1.0}}
	c.CheckMonotone(0, p)
	p[0].Skill = 0.5
	c.CheckMonotone(1, p)
	if len(c.Violations()) == 0 {
		t.Fatal("skill regression not flagged")
	}
}

func TestCheckerDetectsJoinOrderViolation(t *testing.T) {
	c := NewChecker(3)
	c.CheckJoinOrder(0, []matchmaker.Participant{{ID: 1, JoinedRound: 0}, {ID: 2, JoinedRound: 2}, {ID: 3, JoinedRound: 2}})
	if len(c.Violations()) != 0 {
		t.Fatalf("valid join order flagged: %v", c.Violations())
	}
	c.CheckJoinOrder(1, []matchmaker.Participant{{ID: 1, JoinedRound: 2}, {ID: 2, JoinedRound: 1}})
	if len(c.Violations()) == 0 {
		t.Fatal("join round decreasing with id not flagged")
	}
}

func TestShrinkMinimizes(t *testing.T) {
	// Synthetic failure: a schedule fails iff it contains at least two
	// joins and one round, anywhere.
	failing := func(ops []Op) bool {
		joins, rounds := 0, 0
		for _, op := range ops {
			switch op.Kind {
			case OpJoin:
				joins++
			case OpRound:
				rounds++
			default:
				// other kinds are irrelevant to the predicate
			}
		}
		return joins >= 2 && rounds >= 1
	}
	ops := Generate(Config{Seed: 9, Ops: 120}.withDefaults())
	if !failing(ops) {
		t.Fatal("synthetic predicate does not fail on the full schedule")
	}
	min := Shrink(ops, failing, 0)
	if !failing(min) {
		t.Fatal("shrunk schedule no longer fails")
	}
	if len(min) != 3 {
		t.Fatalf("shrink left %d ops, want the minimal 3:\n%s", len(min), FormatOps(min))
	}
}

func TestShrinkOnRealHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking re-runs the harness many times")
	}
	// An impossible-to-fail predicate must return the input unchanged…
	cfg := allFaultCfg(2)
	ops := Generate(cfg)
	same := Shrink(ops, func(s []Op) bool { return Run(cfg, s).Failed() }, 50)
	if len(same) != len(ops) {
		t.Fatalf("shrinker removed ops from a passing run (%d -> %d)", len(ops), len(same))
	}
}

func TestDecodeOpsTotal(t *testing.T) {
	// Every byte string decodes, and kinds stay in the fuzz vocabulary.
	for _, data := range [][]byte{nil, {0}, {1}, {2}, {0, 200}, {1, 7, 2, 0, 0}, {255, 254, 253, 3, 9}} {
		for _, op := range DecodeOps(data) {
			if op.Kind != OpJoin && op.Kind != OpLeave && op.Kind != OpRound {
				t.Fatalf("DecodeOps(%v) produced op kind %v", data, op.Kind)
			}
			if op.Kind == OpJoin && (op.Skill < 0.5 || op.Skill >= 1.5) {
				t.Fatalf("DecodeOps(%v) produced out-of-range skill %v", data, op.Skill)
			}
		}
	}
}
