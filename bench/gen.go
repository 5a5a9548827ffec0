package main

import (
	"math"
	"sort"
	"time"
)

// The benchmark owns its input generator, so no change to the program
// can change what the benchmark feeds it.

// rng is splitmix64: one uint64 of state, and a stream that is a pure
// function of the seed on every platform.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// norm returns a standard normal draw (Box–Muller, cosine branch).
func (r *rng) norm() float64 {
	u1 := 1 - r.float64() // (0, 1]: the logarithm stays finite
	u2 := r.float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// skill draws the paper's log-normal skill. The paper's "mean µ = e and
// standard deviation σ = √e" is read, as everywhere in this repository,
// as median e and scale √e: exp(N(1, 0.5)).
func (r *rng) skill() float64 { return math.Exp(1 + 0.5*r.norm()) }

// zipf maps a uniform draw to a slot with p(rank) ∝ rank^−s: slot 0 is
// the hottest session.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) zipf {
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1
	return zipf{cum: cum}
}

// pick returns the first slot whose cumulative share exceeds u.
func (z zipf) pick(u float64) int {
	i := sort.Search(len(z.cum), func(i int) bool { return z.cum[i] > u })
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}

type opKind uint8

const (
	opJoin opKind = iota
	opLeave
	opRound
	opStatus
	numOpKinds
)

// op is one planned request. at is its intended send time relative to
// the start of its phase; pick chooses which member a leave removes,
// among those the client knows when the leave is sent.
type op struct {
	at    time.Duration
	kind  opKind
	slot  int
	skill float64
	pick  uint64
}

// planner draws a seeded op stream. It tracks each session's planned
// roster size, so a leave never empties a session below two groups and
// rounds always find a full group.
type planner struct {
	r      *rng
	z      zipf
	mix    [numOpKinds]int
	total  int
	roster []int
	lo, hi int
}

func newPlanner(seed uint64, sessions, members, groupSize int, mix [numOpKinds]int) *planner {
	p := &planner{
		r:      newRNG(seed ^ 0x6f70706c616e), // "opplan"
		z:      newZipf(sessions, 1.1),
		mix:    mix,
		roster: make([]int, sessions),
		lo:     2 * groupSize,
		hi:     members + members/2,
	}
	for i := range p.roster {
		p.roster[i] = members
	}
	for _, w := range mix {
		p.total += w
	}
	return p
}

func (p *planner) next() op {
	o := op{slot: p.z.pick(p.r.float64()), skill: p.r.skill(), pick: p.r.next()}
	w := int(p.r.next() % uint64(p.total))
	for k, mw := range p.mix {
		if w < mw {
			o.kind = opKind(k)
			break
		}
		w -= mw
	}
	switch {
	case o.kind == opLeave && p.roster[o.slot] <= p.lo:
		o.kind = opJoin
	case o.kind == opJoin && p.roster[o.slot] >= p.hi:
		o.kind = opLeave
	}
	switch o.kind {
	case opJoin:
		p.roster[o.slot]++
	case opLeave:
		p.roster[o.slot]--
	default: // rounds and status reads leave the roster as it is
	}
	return o
}

// schedule plans a constant-rate phase of the given length.
func (p *planner) schedule(rate float64, length time.Duration) []op {
	n := int(rate * length.Seconds())
	ops := make([]op, n)
	for i := range ops {
		ops[i] = p.next()
		ops[i].at = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return ops
}

// population draws n skills, for a session roster or an offline run.
func population(seed uint64, n int) []float64 {
	r := newRNG(seed)
	s := make([]float64, n)
	for i := range s {
		s[i] = r.skill()
	}
	return s
}
