package main

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock moves only when the dispatcher sleeps or a test op advances
// it, so every timestamp of a run is exact.
type fakeClock struct {
	mu   sync.Mutex
	cond *sync.Cond
	t    time.Duration
}

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.t {
		c.t = t
	}
	c.cond.Broadcast()
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
	c.cond.Broadcast()
}

func (c *fakeClock) waitFor(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.t < t {
		c.cond.Wait()
	}
}

// TestOpenLoopChargesStallToQueuedOps stalls the first of 50 ops, due
// 1 ms apart, for 100 ms on one connection. Every op queued behind it
// must be charged the wait, not just its own 0.1 ms service time.
func TestOpenLoopChargesStallToQueuedOps(t *testing.T) {
	const n = 50
	clk := newFakeClock()
	ops := make([]op, n)
	for i := range ops {
		ops[i].at = time.Duration(i) * time.Millisecond
	}
	stall, service := 100*time.Millisecond, 100*time.Microsecond
	samples := openLoop(clk, 0, ops, 1, func(_ int, o op, _ *sample) bool {
		if o.at == 0 {
			// Hold the connection until every op is due and queued.
			clk.waitFor(ops[n-1].at)
			clk.advance(stall)
			return true
		}
		clk.advance(service)
		return true
	})
	lastDue := ops[n-1].at
	if got, want := samples[0].latency(), lastDue+stall; got != want {
		t.Fatalf("stalled op latency %v, want %v", got, want)
	}
	for i := 1; i < n; i++ {
		s := samples[i]
		want := lastDue + stall + time.Duration(i)*service - ops[i].at
		if s.latency() != want {
			t.Fatalf("op %d latency %v, want %v", i, s.latency(), want)
		}
		if s.done-s.sent != service {
			t.Fatalf("op %d service %v, want %v", i, s.done-s.sent, service)
		}
		if s.latency() < stall {
			t.Fatalf("op %d was not charged the stall: %v", i, s.latency())
		}
	}
}

func TestClosedLoopStopsAtEnd(t *testing.T) {
	clk := newFakeClock()
	planned := 0
	samples := closedLoop(clk, 10*time.Millisecond, func() op { planned++; return op{kind: opStatus} }, 1,
		func(int, op, *sample) bool { clk.advance(time.Millisecond); return true })
	if len(samples) != 10 || planned != 10 {
		t.Fatalf("%d samples from %d planned ops over 10 ms at 1 ms each", len(samples), planned)
	}
	for i, s := range samples {
		if s.at != time.Duration(i)*time.Millisecond || s.latency() != time.Millisecond || !s.ok {
			t.Fatalf("sample %d = %+v", i, s)
		}
	}
}

// TestSatRateIsMedianWindow completes a reply every 10 ms, with one
// 500 ms stall and one window's worth of replies twice as fast: the
// reported rate is the typical 100/s, and failed replies and replies
// outside the phase do not count.
func TestSatRateIsMedianWindow(t *testing.T) {
	const start, gap = time.Second, 10 * time.Millisecond
	var samples []sample
	at := start
	for i := 0; i < 10*satWindows; i++ {
		at += gap
		if i >= 100 && i < 110 {
			at -= gap / 2
		}
		if i == 35 {
			at += 500 * time.Millisecond
		}
		samples = append(samples, sample{done: at, ok: true}, sample{done: at - gap/2})
	}
	length := at - start + 100*time.Millisecond
	samples = append(samples, sample{done: start + length + 1, ok: true}, sample{done: start - 1, ok: true})
	if got := satRate(samples, start, length); math.Abs(got-100) > 1e-9 {
		t.Fatalf("sat rate %v, want 100/s", got)
	}
}

func TestLagGate(t *testing.T) {
	// 20000 ops 10 ms apart: the last second holds 0.5% of them, so
	// the backlog check is not masked by the p99 check.
	mk := func(lag func(i int) time.Duration) []sample {
		s := make([]sample, 20000)
		for i := range s {
			s[i] = sample{at: time.Duration(i) * 10 * time.Millisecond, lag: lag(i)}
		}
		return s
	}
	if err := checkLag(mk(func(int) time.Duration { return time.Millisecond })); err != nil {
		t.Fatalf("steady lag rejected: %v", err)
	}
	late := func(i int) time.Duration {
		if i%50 == 0 {
			return 6 * time.Millisecond
		}
		return 0
	}
	if err := checkLag(mk(late)); err == nil {
		t.Fatal("a p99 lag over 5 ms passed")
	}
	grow := func(i int) time.Duration {
		if i >= 19900 {
			return 5*time.Millisecond + 100*time.Microsecond
		}
		return 0
	}
	if err := checkLag(mk(grow)); !errors.Is(err, errNoisyHost) {
		t.Fatal("a backlog growing by more than 5 ms passed")
	}
}
