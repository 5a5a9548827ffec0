package main

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// clock is the runner's time source: durations since the run began.
// Tests substitute a fake to drive the coordinated-omission accounting
// exactly.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ base time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.base) }

// sleepUntil sleeps; it never spins. A spin or Gosched wait starves the
// network poller the in-process server depends on and made latency
// worse in measurement than the sleep's overshoot.
func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// sample is one op's timeline. at is when the op was due (for a closed
// loop, when it was sent), lag how late the dispatcher handed it out,
// sent when a connection took it, done when its last byte was read.
type sample struct {
	at, lag, sent, done time.Duration
	kind                opKind
	ok                  bool
}

// latency is charged from the intended send time, so a stall also
// charges every op queued behind it.
func (s sample) latency() time.Duration { return s.done - s.at }

// doFunc runs one op on connection conn and reports whether it
// succeeded (a 2xx reply that passed its checks). s is the op's sample,
// complete except for done.
type doFunc func(conn int, o op, s *sample) bool

// openLoop sends ops at their planned times, relative to start, over
// conns connections. One dispatcher wakes, hands out every op that is
// due, and sleeps until the next one; connections take ops in order.
// Nothing waits for replies, so a slow system builds a queue.
func openLoop(clk clock, start time.Duration, ops []op, conns int, do doFunc) []sample {
	samples := make([]sample, len(ops))
	queue := make(chan int, len(ops)) // sized to the number of sends
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queue {
				s := &samples[i]
				s.sent = clk.now()
				s.ok = do(c, ops[i], s)
				s.done = clk.now()
			}
		}(c)
	}
	for i := 0; i < len(ops); {
		clk.sleepUntil(start + ops[i].at)
		now := clk.now()
		for ; i < len(ops) && start+ops[i].at <= now; i++ {
			samples[i].at = start + ops[i].at
			samples[i].lag = now - samples[i].at
			samples[i].kind = ops[i].kind
			queue <- i
		}
	}
	close(queue)
	wg.Wait()
	return samples
}

// closedLoop keeps conns connections busy back to back until end, each
// sending its next op as soon as the previous reply is read.
func closedLoop(clk clock, end time.Duration, next func() op, conns int, do doFunc) []sample {
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sample
			for {
				s := sample{at: clk.now()}
				if s.at >= end {
					break
				}
				mu.Lock()
				//peerlint:allow lockheld — the plan is one seeded stream; mu exists to serialize its draws
				o := next()
				mu.Unlock()
				s.kind, s.sent = o.kind, s.at
				s.ok = do(c, o, &s)
				s.done = clk.now()
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all
}

// maxLag is the generator validity limit: a run whose dispatcher ran
// later than this at p99 over its measured open-loop phases, or whose
// lag grew by more than this from their first second to their last,
// measured the host, not the program.
const maxLag = 5 * time.Millisecond

// errNoisyHost marks a run the validity gate refused.
var errNoisyHost = errors.New("generator lag: the host was too noisy to measure")

// checkLag applies the validity gate to a run's measured open-loop
// samples, in dispatch order.
func checkLag(samples []sample) error {
	if len(samples) == 0 {
		return nil
	}
	lags := make([]time.Duration, len(samples))
	for i, s := range samples {
		lags[i] = s.lag
	}
	if p99 := newDist(lags).q(0.99); p99 > ms(maxLag) {
		return fmt.Errorf("%w: lag p99 %.3f ms exceeds %v", errNoisyHost, p99, maxLag)
	}
	first, last := samples[0].at, samples[len(samples)-1].at
	var head, tail []time.Duration
	for _, s := range samples {
		if s.at < first+time.Second {
			head = append(head, s.lag)
		}
		if s.at > last-time.Second {
			tail = append(tail, s.lag)
		}
	}
	if grow := newDist(tail).q(0.5) - newDist(head).q(0.5); grow > ms(maxLag) {
		return fmt.Errorf("%w: lag grew by %.3f ms over the run", errNoisyHost, grow)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
