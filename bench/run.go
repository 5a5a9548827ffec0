package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// runConfig sizes one run. main fills it from the command line; the
// smoke test shrinks it.
type runConfig struct {
	seed    uint64
	measure time.Duration // the measured phases together
	warm    time.Duration // open-loop warm-up, discarded
	setups  int           // set-ups per run; setup_s is their median
	// offlineN is the offline population; offlineWarm and
	// offlineTraced count its warm-up runs and a traced run's timed runs.
	offlineN      int
	offlineWarm   int
	offlineTraced int
	tmp           string // scratch directory for journals
	spans         string // directory traced runs write spans to; "" skips
}

type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome: metrics in report order, op counts, and
// every correctness problem found.
type result struct {
	attempted, failed int
	problems          []string
	metrics           []metric
	notes             []string
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count books a phase's samples into the op totals.
func (r *result) count(samples []sample) {
	r.attempted += len(samples)
	for _, s := range samples {
		if !s.ok {
			r.failed++
		}
	}
}

func medianDur(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// latencies returns the latencies of the successful samples of the
// given kinds (all kinds when none are given).
func latencies(samples []sample, kinds ...opKind) dist {
	var ds []time.Duration
	for _, s := range samples {
		if s.ok && (len(kinds) == 0 || slices.Contains(kinds, s.kind)) {
			ds = append(ds, s.latency())
		}
	}
	return newDist(ds)
}

// addTimings reports a latency set as its median and its tail: p90, the
// highest percentile a regression bound can hold on this host, or, for
// a set too small to leave ten samples beyond p90, the highest lower
// percentile that does. It notes the p99 and the highest percentile
// with at least ten samples beyond it.
func addTimings(res *result, prefix string, d dist) {
	tail := tailQ(len(d), 0.9)
	res.add(prefix+"_p50_ms", d.q(0.5), "ms")
	res.add(prefix+"_tail_ms", d.q(tail), "ms")
	q := tailQ(len(d), 0.99)
	res.note("%s: n=%d, tail is p%g; p99 %.3f ms, p%g %.3f ms (%d samples beyond)", prefix, len(d), tail*100, d.q(0.99), q*100, d.q(q), beyond(len(d), q))
}

// satWindows is the number of windows the saturation phase is cut into.
// sat_ops_s is the median of their rates, so a host stall that takes one
// window does not move it.
const satWindows = 16

// satRate is the median rate of the 2xx replies completed from start to
// start+length, cut into satWindows windows of equally many replies.
// Each window's rate is its reply count over the time from the previous
// window's last reply (or start) to its own last reply, so it is not
// rounded to a whole count per fixed window.
func satRate(samples []sample, start, length time.Duration) float64 {
	var done []time.Duration
	for _, s := range samples {
		if s.ok && s.done >= start && s.done <= start+length {
			done = append(done, s.done)
		}
	}
	slices.Sort(done)
	per := len(done) / satWindows
	if per == 0 {
		return float64(len(done)) / length.Seconds()
	}
	rates := make([]float64, satWindows)
	prev := start
	for i := range rates {
		end := done[(i+1)*per-1]
		rates[i] = float64(per) / max(end-prev, 1).Seconds()
		prev = end
	}
	slices.Sort(rates)
	return quantile(rates, 0.5)
}

// setUp runs setup n times and returns the last deployment and every
// set-up's duration. Each starts from a collected heap, as a freshly
// started process would, so the previous one's garbage is not charged
// to it.
func setUp[T any](n int, setup func() (T, error), discard func(T)) (T, []time.Duration, error) {
	var last T
	durs := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, nil, err
		}
		durs = append(durs, time.Since(t0))
		last = v
	}
	return last, durs, nil
}

// ballastBytes is heap a serving run holds and never touches. The
// serving cohorts keep only a few MiB live, so without it the collector
// ran about eighty times a second, paced by that small, drifting heap,
// and the saturation rate of one process differed from the next by up
// to a quarter. With it the collector paces as in a daemon that holds
// 128 MiB of state. The slice has no pointers and is never written, so
// it is neither marked nor resident; the higher heap goal it sets does
// let the process grow to a few hundred MiB.
const ballastBytes = 128 << 20

// runServing runs a serving workload. Untraced: set-up, a warm-up, the
// heavy open-loop phase (3/5 of the measured time) and the closed-loop
// saturation phase (2/5). Traced: the heavy phase in four quarters,
// alternately untraced and traced, then the direct probes.
func runServing(spec servingSpec, cfg runConfig, traced bool) (*result, error) {
	ballast := make([]byte, ballastBytes)
	defer runtime.KeepAlive(ballast)
	clk := wallClock{base: time.Now()}
	var tr *tracer
	if traced {
		tr = newTracer(clk, spec.sessions)
	}
	res := &result{}
	var recovers []time.Duration
	in, setups, err := setUp(cfg.setups, func() (*instance, error) {
		in, err := newInstance(spec, cfg, tr)
		if err == nil {
			recovers = append(recovers, in.recoverDur)
		}
		return in, err
	}, (*instance).close)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.close()
	if !traced {
		res.add("setup_s", medianDur(setups).Seconds(), "s")
	}
	res.note("setup: median of %d set-ups %v", len(setups), setups)

	pl := newPlanner(cfg.seed, spec.sessions, spec.members, groupSize, spec.mix)
	phase := func(length time.Duration) []sample {
		samples := openLoop(clk, clk.now()+time.Millisecond, pl.schedule(spec.heavyRate, length), conns, in.do)
		res.count(samples)
		return samples
	}
	phase(cfg.warm) // discarded, so its generator lag does not matter

	if !traced {
		heavy := phase(cfg.measure * 3 / 5)
		if err := checkLag(heavy); err != nil {
			return nil, err
		}
		satLen := cfg.measure * 2 / 5
		satStart := clk.now()
		sat := closedLoop(clk, satStart+satLen, pl.next, conns, in.do)
		res.count(sat)
		addTimings(res, "op", latencies(heavy))
		addTimings(res, "round", latencies(heavy, opRound))
		res.add("sat_ops_s", satRate(sat, satStart, satLen), "1/s")
		noteLag(res, heavy)
	} else {
		// Untraced and traced quarters alternate, so drift in the host
		// does not read as tracing overhead.
		var all, plain, withTrace []sample
		var cost procStats
		for i := 0; i < 4; i++ {
			on := i%2 == 1
			tr.enable(in, on)
			before := readProc()
			samples := phase(cfg.measure / 4)
			if on {
				withTrace = append(withTrace, samples...)
			} else {
				cost = cost.add(readProc().sub(before))
				plain = append(plain, samples...)
			}
			all = append(all, samples...)
		}
		tr.enable(in, false)
		if err := checkLag(all); err != nil {
			return nil, err
		}
		procMetrics(res, cost, len(plain))
		addLag(res, plain)
		if err := servingLayers(res, spec, cfg, in, tr, plain, withTrace, recovers); err != nil {
			return nil, err
		}
	}
	var added int
	res.problems, added = in.verify()
	res.failed += added
	return res, nil
}

func lagDists(samples []sample) (lag, wait dist) {
	lags := make([]time.Duration, len(samples))
	waits := make([]time.Duration, len(samples))
	for i, s := range samples {
		lags[i] = s.lag
		waits[i] = s.sent - s.at
	}
	return newDist(lags), newDist(waits)
}

func noteLag(res *result, samples []sample) {
	lag, wait := lagDists(samples)
	res.note("generator: lag p50 %.3f ms, p99 %.3f ms; connection wait p99 %.3f ms", lag.q(0.5), lag.q(0.99), wait.q(0.99))
}

func addLag(res *result, samples []sample) {
	lag, wait := lagDists(samples)
	res.add("bench.gen_lag_ms.p50", lag.q(0.5), "ms")
	res.add("bench.gen_lag_ms.p99", lag.q(0.99), "ms")
	res.add("bench.conn_wait_ms.p99", wait.q(0.99), "ms")
}

// servingLayers reports the per-layer metrics of a traced serving run.
func servingLayers(res *result, spec servingSpec, cfg runConfig, in *instance, tr *tracer, plain, withTrace []sample, recovers []time.Duration) error {
	floor, err := httpFloor(in, 2000)
	if err != nil {
		return err
	}
	res.add("server.http_floor_us", float64(floor)/float64(time.Microsecond), "us")
	res.add("server.store.lookup_ns", storeLookup(in), "ns")
	var recoverS float64
	var joinUS, roundUS float64
	if spec.wal {
		recoverS = medianDur(recovers).Seconds()
		join, round, err := walProbe(cfg.tmp)
		if err != nil {
			return fmt.Errorf("wal probe: %w", err)
		}
		joinUS, roundUS = float64(join)/float64(time.Microsecond), float64(round)/float64(time.Microsecond)
	}
	res.add("server.store.recover_s", recoverS, "s")
	res.add("server.wal.join_append_us", joinUS, "us")
	res.add("server.wal.round_append_us", roundUS, "us")

	spans := tr.spans()
	pick := func(f func(roundSpans) time.Duration) dist {
		ds := make([]time.Duration, len(spans))
		for i, s := range spans {
			ds[i] = f(s)
		}
		return newDist(ds)
	}
	ingress := pick(func(s roundSpans) time.Duration { return s.Ingress })
	apply := pick(func(s roundSpans) time.Duration { return s.Apply })
	egress := pick(func(s roundSpans) time.Duration { return s.Egress })
	tr.mu.Lock()
	group := newDist(tr.groupDurs)
	ambiguous := tr.ambiguous
	tr.mu.Unlock()
	res.add("round.ingress_ms.p50", ingress.q(0.5), "ms")
	res.add("round.ingress_ms.p99", ingress.q(0.99), "ms")
	res.add("matchmaker.attempts_per_round", attemptsPerRound(len(group), withTrace), "count")
	res.add("dygroups.group_ms.p50", group.q(0.5), "ms")
	res.add("dygroups.group_ms.p99", group.q(0.99), "ms")
	res.add("core.apply_ms.p50", apply.q(0.5), "ms")
	res.add("core.run_self_ms.p50", 0, "ms")
	res.add("round.egress_ms.p50", egress.q(0.5), "ms")
	res.add("round.egress_ms.p99", egress.q(0.99), "ms")
	plainP50 := latencies(plain).q(0.5)
	res.add("trace.overhead_pct", 100*(latencies(withTrace).q(0.5)-plainP50)/plainP50, "%")
	res.add("trace.ambiguous_rounds", float64(ambiguous), "count")
	res.note("trace: %d rounds attributed, %d ambiguous", len(spans), ambiguous)
	return writeSpans(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", spec.name, cfg.seed), spans)
}

// attemptsPerRound is the grouping calls made while tracing was on per
// round that succeeded then. It counts every round, those that raced
// another round or fell back to the pessimistic path included, so it
// shows the retries that per-round attribution cannot.
func attemptsPerRound(groupCalls int, samples []sample) float64 {
	rounds := 0
	for _, s := range samples {
		if s.ok && s.kind == opRound {
			rounds++
		}
	}
	if rounds == 0 {
		return 0
	}
	return float64(groupCalls) / float64(rounds)
}
