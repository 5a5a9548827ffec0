package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"peerlearn/internal/core"
	"peerlearn/internal/dygroups"
	"peerlearn/internal/matchmaker"
	"peerlearn/internal/server"
)

// Per-layer spans are recorded from the benchmark only, through the
// program's public seams: a policy factory wrapping the DyGroups
// policies, a per-session round hook, and timed direct calls.

// roundSpans partitions one round request's client span, from its
// intended send time to its last byte, at the layer boundaries the
// seams expose. The parts sum exactly to the whole.
type roundSpans struct {
	Queue   time.Duration `json:"queue_ns"`   // due → a connection sends it
	Ingress time.Duration `json:"ingress_ns"` // send → first roster snapshot: HTTP, store lookup, lock wait, seat sort
	Retry   time.Duration `json:"retry_ns"`   // first → last snapshot: optimistic attempts lost to churn
	Group   time.Duration `json:"group_ns"`   // last snapshot → grouping done: dygroups
	Apply   time.Duration `json:"apply_ns"`   // grouping done → round computed: validation and core.ApplyRound
	Egress  time.Duration `json:"egress_ns"`  // computed → last byte: apply under the lock, WAL append, encode, reply
}

// roundMarks are the seam timestamps of one round, all on the run clock.
type roundMarks struct {
	at, sent, firstSnap, lastSnap, groupEnd, computed, done time.Duration
}

func partition(m roundMarks) roundSpans {
	return roundSpans{
		Queue:   m.sent - m.at,
		Ingress: m.firstSnap - m.sent,
		Retry:   m.lastSnap - m.firstSnap,
		Group:   m.groupEnd - m.lastSnap,
		Apply:   m.computed - m.groupEnd,
		Egress:  m.done - m.computed,
	}
}

// slotTrace collects the seam timestamps of the round in flight on one
// session. Two rounds in flight on one session cannot be told apart;
// both are marked ambiguous.
type slotTrace struct {
	mu        sync.Mutex
	inflight  int
	ambiguous bool
	snaps     int
	groups    int
	marks     roundMarks
}

type pendingRound struct {
	s     *sample
	marks roundMarks
}

// tracer attributes traced round requests to layers.
type tracer struct {
	clk   clock
	on    atomic.Bool
	slots []*slotTrace

	mu        sync.Mutex
	pending   []pendingRound
	ambiguous int
	groupDurs []time.Duration
}

func newTracer(clk clock, sessions int) *tracer {
	t := &tracer{clk: clk, slots: make([]*slotTrace, sessions)}
	for i := range t.slots {
		t.slots[i] = &slotTrace{}
	}
	return t
}

// factory is the store's policy factory: the DyGroups policies, timed.
// The session's slot arrives as the create request's seed.
func (t *tracer) factory(name string, mode core.Mode, seed int64) (core.Grouper, error) {
	if name != "" && name != "dygroups" {
		return nil, fmt.Errorf("traced run serves dygroups only, not %q", name)
	}
	if seed < 0 || seed >= int64(len(t.slots)) {
		return nil, fmt.Errorf("seed %d is not a session slot", seed)
	}
	var g core.Grouper = dygroups.NewStar()
	if mode == core.Clique {
		g = dygroups.NewClique()
	}
	return &slotGrouper{Grouper: g, t: t, st: t.slots[seed]}, nil
}

type slotGrouper struct {
	core.Grouper
	t  *tracer
	st *slotTrace
}

func (g *slotGrouper) Group(s core.Skills, k int) core.Grouping {
	if !g.t.on.Load() {
		return g.Grouper.Group(s, k)
	}
	start := g.t.clk.now()
	out := g.Grouper.Group(s, k)
	end := g.t.clk.now()
	g.st.mu.Lock()
	g.st.groups++
	g.st.marks.groupEnd = end
	g.st.mu.Unlock()
	g.t.mu.Lock()
	g.t.groupDurs = append(g.t.groupDurs, end-start)
	g.t.mu.Unlock()
	return out
}

// hook returns the round hook for one session.
func (t *tracer) hook(slot int) matchmaker.RoundHook {
	st := t.slots[slot]
	return func(stage matchmaker.RoundStage) {
		now := t.clk.now()
		st.mu.Lock()
		defer st.mu.Unlock()
		switch stage {
		case matchmaker.StageSnapshotted:
			if st.snaps == 0 {
				st.marks.firstSnap = now
			}
			st.marks.lastSnap = now
			st.snaps++
		case matchmaker.StageComputed:
			st.marks.computed = now
		}
	}
}

// enable turns tracing on or off, installing or removing every
// session's round hook.
func (t *tracer) enable(in *instance, on bool) {
	t.on.Store(on)
	for slot, b := range in.books {
		if sess, ok := in.store.Session(b.id); ok {
			if on {
				sess.SetRoundHook(t.hook(slot))
			} else {
				sess.SetRoundHook(nil)
			}
		}
	}
}

func (t *tracer) begin(slot int) {
	if !t.on.Load() {
		return
	}
	st := t.slots[slot]
	st.mu.Lock()
	defer st.mu.Unlock()
	st.inflight++
	if st.inflight > 1 {
		st.ambiguous = true
		return
	}
	st.ambiguous, st.snaps, st.groups, st.marks = false, 0, 0, roundMarks{}
}

// end closes a round's record. s is the round's sample; its done time
// is filled in after end returns, so the partition is computed once
// the phase is over.
func (t *tracer) end(slot int, s *sample) {
	if !t.on.Load() {
		return
	}
	st := t.slots[slot]
	st.mu.Lock()
	st.inflight--
	ambiguous := st.ambiguous
	// A round with no snapshot failed before seating; one with more
	// groupings than snapshots fell back to the pessimistic path, which
	// fires no hook. Neither partitions.
	if st.snaps == 0 || st.groups != st.snaps {
		ambiguous = true
	}
	p := pendingRound{s: s, marks: st.marks}
	st.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if ambiguous {
		t.ambiguous++
		return
	}
	t.pending = append(t.pending, p)
}

// spans returns every attributed round's partition.
func (t *tracer) spans() []roundSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]roundSpans, 0, len(t.pending))
	for _, p := range t.pending {
		if !p.s.ok {
			continue
		}
		m := p.marks
		m.at, m.sent, m.done = p.s.at, p.s.sent, p.s.done
		out = append(out, partition(m))
	}
	return out
}

// writeSpans writes span records as JSON lines, once, at the end of a
// traced run.
func writeSpans[T any](dir, name string, recs []T) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// httpFloor is the median time of sequential GET /healthz requests: the
// cost of the middleware, mux, codec and loopback round trip alone.
func httpFloor(in *instance, n int) (time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		code, _, err := in.call(0, http.MethodGet, "/healthz", nil)
		ds[i] = time.Since(t0)
		if err != nil || code != http.StatusOK {
			return 0, fmt.Errorf("healthz: status %d: %v", code, err)
		}
	}
	return time.Duration(newDist(ds).q(0.5) * float64(time.Millisecond)), nil
}

// storeLookup is the median per-call time of SessionStore.Session over
// the workload's live sessions, in batches of 1000 calls.
func storeLookup(in *instance) float64 {
	ids := make([]int64, len(in.books))
	for i, b := range in.books {
		ids[i] = b.id
	}
	per := make([]time.Duration, 200)
	for i := range per {
		t0 := time.Now()
		for j := 0; j < 1000; j++ {
			in.store.Session(ids[j%len(ids)])
		}
		per[i] = time.Since(t0)
	}
	return newDist(per).q(0.5) * 1e6 / 1000 // ms per batch → ns per call
}

// walProbe times SessionLog appends on a scratch journal: joins into
// one session, and DyGroups rounds over a 16-member roster in another.
// Both include compaction at the journal's default snapshot interval.
func walProbe(tmp string) (join, round time.Duration, err error) {
	dir, err := os.MkdirTemp(tmp, "peerlearn-walprobe-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	j, err := server.OpenJournal(dir)
	if err != nil {
		return 0, 0, err
	}
	gain := core.MustLinear(0.5)
	joins, err := j.Create(1, "dygroups", core.Star, groupSize, gain.R, 0)
	if err != nil {
		return 0, 0, err
	}
	defer joins.Close()
	skills := population(7, 2000)
	jd := make([]time.Duration, len(skills))
	for i, s := range skills {
		t0 := time.Now()
		if err := joins.Joined(int64(i+1), s); err != nil {
			return 0, 0, err
		}
		jd[i] = time.Since(t0)
	}
	rounds, err := j.Create(2, "dygroups", core.Star, groupSize, gain.R, 0)
	if err != nil {
		return 0, 0, err
	}
	defer rounds.Close()
	cur := core.Skills(skills[:16:16])
	ids := make([]int64, len(cur))
	for i, s := range cur {
		ids[i] = int64(i + 1)
		if err := rounds.Joined(ids[i], s); err != nil {
			return 0, 0, err
		}
	}
	rd := make([]time.Duration, 1000)
	for r := range rd {
		g := dygroups.NewStar().Group(cur, len(cur)/groupSize)
		next, gn, err := core.ApplyRound(cur, g, core.Star, gain)
		if err != nil {
			return 0, 0, err
		}
		rec := matchmaker.RoundRecord{Round: r + 1, Seated: ids, Grouping: g, Gain: gn}
		t0 := time.Now()
		if err := rounds.RoundApplied(rec); err != nil {
			return 0, 0, err
		}
		rd[r] = time.Since(t0)
		cur = next
	}
	us := func(ds []time.Duration) time.Duration {
		return time.Duration(newDist(ds).q(0.5) * float64(time.Millisecond))
	}
	return us(jd), us(rd), nil
}

// procStats is a snapshot of the whole process's counters, or the
// difference of two. Client and server share the process, so per-op
// figures include the load generator's share.
type procStats struct {
	cpu             time.Duration
	allocs, bytes   uint64
	gcCPU, totalCPU float64
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ss := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ss)
	return procStats{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   ss[0].Value.Uint64(),
		bytes:    ss[1].Value.Uint64(),
		gcCPU:    ss[2].Value.Float64(),
		totalCPU: ss[3].Value.Float64(),
	}
}

func (a procStats) sub(b procStats) procStats {
	return procStats{a.cpu - b.cpu, a.allocs - b.allocs, a.bytes - b.bytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a procStats) add(b procStats) procStats {
	return procStats{a.cpu + b.cpu, a.allocs + b.allocs, a.bytes + b.bytes, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// procMetrics reports a process cost delta per op.
func procMetrics(res *result, d procStats, ops int) {
	n := float64(max(ops, 1))
	res.add("process.cpu_us_per_op", float64(d.cpu)/float64(time.Microsecond)/n, "us")
	res.add("process.allocs_per_op", float64(d.allocs)/n, "count")
	res.add("process.alloc_bytes_per_op", float64(d.bytes)/n, "B")
	frac := 0.0
	if d.totalCPU > 0 {
		frac = d.gcCPU / d.totalCPU
	}
	res.add("process.gc_cpu_fraction", frac, "ratio")
}
