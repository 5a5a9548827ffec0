package main

import (
	"slices"
	"testing"
	"time"

	"peerlearn/internal/matchmaker"
)

// TestSpansPartitionRound checks the round spans tile the client span
// exactly, on a hand-built timeline and on random ordered ones.
func TestSpansPartitionRound(t *testing.T) {
	us := time.Microsecond
	m := roundMarks{at: 0, sent: 300 * us, firstSnap: 350 * us, lastSnap: 900 * us, groupEnd: 1000 * us, computed: 1100 * us, done: 1400 * us}
	got := partition(m)
	want := roundSpans{Queue: 300 * us, Ingress: 50 * us, Retry: 550 * us, Group: 100 * us, Apply: 100 * us, Egress: 300 * us}
	if got != want {
		t.Fatalf("partition = %+v, want %+v", got, want)
	}
	r := newRNG(9)
	for i := 0; i < 1000; i++ {
		ts := make([]time.Duration, 7)
		for j := range ts {
			ts[j] = time.Duration(r.next() % 1e9)
		}
		slices.Sort(ts)
		m := roundMarks{ts[0], ts[1], ts[2], ts[3], ts[4], ts[5], ts[6]}
		s := partition(m)
		if sum := s.Queue + s.Ingress + s.Retry + s.Group + s.Apply + s.Egress; sum != m.done-m.at {
			t.Fatalf("spans %+v sum to %v, client span %v", s, sum, m.done-m.at)
		}
		for _, d := range []time.Duration{s.Queue, s.Ingress, s.Retry, s.Group, s.Apply, s.Egress} {
			if d < 0 {
				t.Fatalf("negative span in %+v", s)
			}
		}
	}
}

// TestOverlappingRoundsAreAmbiguous drives the tracer's bookkeeping
// directly: a lone round is attributed, two overlapping rounds on one
// session are both excluded.
func TestOverlappingRoundsAreAmbiguous(t *testing.T) {
	clk := newFakeClock()
	tr := newTracer(clk, 2)
	tr.on.Store(true)
	hook := tr.hook(0)
	g := &slotGrouper{t: tr, st: tr.slots[0]}
	round := func(s *sample) {
		hook(matchmaker.StageSnapshotted)
		clk.advance(time.Millisecond)
		g.st.mu.Lock()
		g.st.groups++
		g.st.marks.groupEnd = clk.now()
		g.st.mu.Unlock()
		hook(matchmaker.StageComputed)
	}

	s1 := &sample{ok: true}
	tr.begin(0)
	round(s1)
	tr.end(0, s1)

	s2, s3 := &sample{ok: true}, &sample{ok: true}
	tr.begin(0)
	tr.begin(0)
	round(s2)
	tr.end(0, s2)
	round(s3)
	tr.end(0, s3)

	if spans := tr.spans(); len(spans) != 1 || tr.ambiguous != 2 {
		t.Fatalf("%d spans, %d ambiguous; want 1, 2", len(spans), tr.ambiguous)
	}
}

// TestAttemptsCountEveryRound checks that grouping attempts are charged
// per successful round over the whole traced phase, ambiguous rounds
// included, and that failed rounds and other ops do not count as rounds.
func TestAttemptsCountEveryRound(t *testing.T) {
	samples := []sample{
		{kind: opRound, ok: true},
		{kind: opRound, ok: true},
		{kind: opRound, ok: false},
		{kind: opJoin, ok: true},
		{kind: opRound, ok: true},
	}
	// Three rounds succeeded; one took three attempts, a failed one two.
	if got := attemptsPerRound(1+3+2+1, samples); got != float64(7)/3 {
		t.Fatalf("attempts per round %v, want 7/3", got)
	}
	if got := attemptsPerRound(4, samples[3:4]); got != 0 {
		t.Fatalf("attempts per round with no round %v, want 0", got)
	}
}
