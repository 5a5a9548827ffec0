package main

import (
	"fmt"
	"math"
	"time"

	"peerlearn/internal/core"
	"peerlearn/internal/dygroups"
)

// The offline workload is the researcher's path: full α-round
// simulations of a fixed population, back to back, alternating the two
// DyGroups policies. The server is not involved.
const (
	offlineRounds = 16
	offlineK      = 5 // groups per round, the paper's default
)

// offlineGolden pins TotalGain (as IEEE-754 bits) of the n = 10⁶, seed 1
// population under each policy. A change that moves a bit of it changed
// what the benchmark computes.
var offlineGolden = map[core.Mode]uint64{
	core.Star:   0x4178751a5700d8ed,
	core.Clique: 0x416a775422298045,
}

// roundTimer wraps a Grouper and records when each round's grouping
// starts and ends, so a run splits into its α rounds. Two clock reads
// per round of tens of milliseconds.
type roundTimer struct {
	core.Grouper
	starts, ends []time.Duration
	clk          clock
}

func (g *roundTimer) Group(s core.Skills, k int) core.Grouping {
	g.starts = append(g.starts, g.clk.now())
	out := g.Grouper.Group(s, k)
	g.ends = append(g.ends, g.clk.now())
	return out
}

// offlineSpan is one traced round of an offline run.
type offlineSpan struct {
	Run   int           `json:"run"`
	Round int           `json:"round"`
	Group time.Duration `json:"group_ns"`
	Apply time.Duration `json:"apply_ns"` // grouping end → next grouping (or the run's end)
}

type offlineRun struct {
	mode   core.Mode
	dur    time.Duration
	rounds []time.Duration
	spans  []offlineSpan
	gain   float64
}

func runOnce(clk clock, skills core.Skills, mode core.Mode, timed bool) (offlineRun, error) {
	var g core.Grouper = dygroups.NewStar()
	if mode == core.Clique {
		g = dygroups.NewClique()
	}
	var rt *roundTimer
	if timed {
		rt = &roundTimer{Grouper: g, clk: clk}
		g = rt
	}
	cfg := core.Config{K: offlineK, Rounds: offlineRounds, Mode: mode, Gain: core.MustLinear(0.5)}
	t0 := clk.now()
	res, err := core.Run(cfg, skills, g)
	end := clk.now()
	if err != nil {
		return offlineRun{}, err
	}
	r := offlineRun{mode: mode, dur: end - t0, gain: res.TotalGain}
	if rt != nil {
		for i, s := range rt.starts {
			next := end
			if i+1 < len(rt.starts) {
				next = rt.starts[i+1]
			}
			r.rounds = append(r.rounds, next-s)
			r.spans = append(r.spans, offlineSpan{Round: i + 1, Group: rt.ends[i] - s, Apply: next - rt.ends[i]})
		}
	}
	return r, nil
}

// checkGains requires every run of one policy to reach a bit-identical
// TotalGain, and, for the pinned population, the golden value.
func checkGains(runs []offlineRun, golden map[core.Mode]uint64) []string {
	var problems []string
	first := map[core.Mode]uint64{}
	for i, r := range runs {
		bits := math.Float64bits(r.gain)
		if f, ok := first[r.mode]; !ok {
			first[r.mode] = bits
		} else if bits != f {
			problems = append(problems, fmt.Sprintf("run %d (%v): total gain %#x differs from the first run's %#x", i, r.mode, bits, f))
		}
		if want, ok := golden[r.mode]; ok && bits != want {
			problems = append(problems, fmt.Sprintf("run %d (%v): total gain %#x, golden %#x", i, r.mode, bits, want))
		}
	}
	return problems
}

// runOffline measures back-to-back core.Run calls for the measured time.
// Traced, it makes offlineTraced pairs of untimed and timed runs, for
// the per-layer split and its overhead.
func runOffline(cfg runConfig, traced bool) (*result, error) {
	clk := wallClock{base: time.Now()}
	res := &result{}
	skills, setups, err := setUp(cfg.setups, func() (core.Skills, error) {
		skills := core.Skills(population(cfg.seed, cfg.offlineN))
		return skills, core.ValidateSkills(skills)
	}, func(core.Skills) {})
	if err != nil {
		return nil, err
	}
	if !traced {
		res.add("setup_s", medianDur(setups).Seconds(), "s")
	}
	res.note("setup: median of %d population draws %v", len(setups), setups)

	var runs []offlineRun
	run := func(mode core.Mode, timed bool) (offlineRun, error) {
		r, err := runOnce(clk, skills, mode, timed)
		res.attempted++
		if err != nil {
			res.failed++
			return r, err
		}
		runs = append(runs, r)
		return r, nil
	}
	modes := [2]core.Mode{core.Star, core.Clique}
	for i := 0; i < cfg.offlineWarm; i++ {
		if _, err := run(modes[i%2], false); err != nil {
			return nil, err
		}
	}

	if !traced {
		start := clk.now()
		var durs, rounds []time.Duration
		for i := 0; i < 2 || clk.now() < start+cfg.measure; i++ {
			r, err := run(modes[i%2], true)
			if err != nil {
				return nil, err
			}
			durs = append(durs, r.dur)
			rounds = append(rounds, r.rounds...)
		}
		took := clk.now() - start
		addTimings(res, "op", newDist(durs))
		addTimings(res, "round", newDist(rounds))
		res.add("sat_ops_s", float64(len(durs))/took.Seconds(), "1/s")
	} else {
		// Untimed and timed runs alternate on the same policy, so drift
		// in the host does not read as tracing overhead.
		var plain, timed []offlineRun
		var cost procStats
		for i := 0; i < cfg.offlineTraced; i++ {
			before := readProc()
			p, err := run(modes[i%2], false)
			if err != nil {
				return nil, err
			}
			cost = cost.add(readProc().sub(before))
			t, err := run(modes[i%2], true)
			if err != nil {
				return nil, err
			}
			plain, timed = append(plain, p), append(timed, t)
		}
		procMetrics(res, cost, len(plain))
		offlineLayers(res, plain, timed)
		var spans []offlineSpan
		for i, r := range timed {
			for _, s := range r.spans {
				s.Run = i
				spans = append(spans, s)
			}
		}
		if err := writeSpans(cfg.spans, fmt.Sprintf("offline-1m-seed%d.jsonl", cfg.seed), spans); err != nil {
			return nil, err
		}
	}
	golden := offlineGolden
	if cfg.seed != 1 || cfg.offlineN != 1_000_000 {
		golden = nil
	}
	res.problems = checkGains(runs, golden)
	res.failed += len(res.problems)
	return res, nil
}

func offlineLayers(res *result, plain, timed []offlineRun) {
	var group, apply, self, plainDur, timedDur []time.Duration
	for _, r := range plain {
		plainDur = append(plainDur, r.dur)
	}
	for _, r := range timed {
		timedDur = append(timedDur, r.dur)
		var sum time.Duration
		for _, s := range r.spans {
			group = append(group, s.Group)
			apply = append(apply, s.Apply)
			sum += s.Group
		}
		self = append(self, (r.dur-sum)/offlineRounds)
	}
	g, a, s := newDist(group), newDist(apply), newDist(self)
	res.add("bench.gen_lag_ms.p50", 0, "ms")
	res.add("bench.gen_lag_ms.p99", 0, "ms")
	res.add("bench.conn_wait_ms.p99", 0, "ms")
	for _, name := range []string{"server.http_floor_us", "server.store.lookup_ns", "server.store.recover_s",
		"server.wal.join_append_us", "server.wal.round_append_us"} {
		res.add(name, 0, layerUnit(name))
	}
	res.add("round.ingress_ms.p50", 0, "ms")
	res.add("round.ingress_ms.p99", 0, "ms")
	res.add("matchmaker.attempts_per_round", 0, "count")
	res.add("dygroups.group_ms.p50", g.q(0.5), "ms")
	res.add("dygroups.group_ms.p99", g.q(0.99), "ms")
	res.add("core.apply_ms.p50", a.q(0.5), "ms")
	res.add("core.run_self_ms.p50", s.q(0.5), "ms")
	res.add("round.egress_ms.p50", 0, "ms")
	res.add("round.egress_ms.p99", 0, "ms")
	pp := newDist(plainDur).q(0.5)
	res.add("trace.overhead_pct", 100*(newDist(timedDur).q(0.5)-pp)/pp, "%")
	res.add("trace.ambiguous_rounds", 0, "count")
	res.note("trace: %d untraced runs, %d traced runs", len(plain), len(timed))
}
