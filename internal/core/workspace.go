package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// skillPair is one group member's skill paired with its rank within the
// group's member list. Sorting pairs (instead of indices through a
// closure) keeps the hot comparison on two loaded values and lets
// slices.SortFunc run without per-call allocations.
type skillPair struct {
	skill float64
	pos   int // position within the group's member slice
}

// cmpSkillPairDesc orders pairs by descending skill, breaking ties by
// the original position within the group. The position tie-break makes
// the (unstable) slices.SortFunc reproduce exactly what a stable
// descending sort over the member list would produce, so results are
// bit-identical to the historical sort.SliceStable implementation.
func cmpSkillPairDesc(a, b skillPair) int {
	if a.skill > b.skill {
		return -1
	}
	if a.skill < b.skill {
		return 1
	}
	return a.pos - b.pos
}

// cmpFloatDesc orders float64 values descending. Skills are validated
// finite, so the NaN cases of a general comparator cannot arise.
func cmpFloatDesc(a, b float64) int {
	if a > b {
		return -1
	}
	if a < b {
		return 1
	}
	return 0
}

// groupScratch holds the per-group scratch buffers of one worker in
// structure-of-arrays layout: the gathered member skills in one
// []float64 lane, their descending rank order in a parallel []int32
// lane, the clique update's delta buffer, and the radix-sort scratch.
// The value and order lanes stream 8- and 4-byte elements instead of
// striding 16-byte (skill, pos) structs, which is what lets the sort
// and gain loops run at cache-line speed; the AoS pair buffer survives
// only as the comparison-sort path below the radix cutover. Buffers
// grow to the largest group seen and are then reused.
type groupScratch struct {
	vals   []float64 // gathered member skills, group order
	pos    []int32   // descending rank order (comparison path output)
	pairs  []skillPair
	deltas []float64
	radix  radixScratch
}

// sortedCheckMinLen gates the pre-sort sortedness scan: below it the
// comparison sort is cheap enough that scanning first costs more than
// it can ever save, and the annealer's small-group proposals live on
// that path. At and above it, DyGroups' already-descending groups skip
// their sort (and the rank lane) entirely.
const sortedCheckMinLen = 32

// descendingSorted reports whether vals is already in descending
// order, in which case a stable descending sort is the identity
// permutation. The scan exits on the first inversion, so unsorted
// inputs pay only a handful of comparisons; inputs below
// sortedCheckMinLen skip the scan and just sort.
func descendingSorted(vals []float64) bool {
	if len(vals) < sortedCheckMinLen {
		return false
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1] {
			return false
		}
	}
	return true
}

// ParallelRoundThreshold is the minimum participant count at which
// round application shards groups across a worker pool. Below it the
// serial path runs: for small rounds the goroutine handoff costs more
// than the update itself, and the serial path is what stays
// allocation-free at steady state. Both paths produce bit-identical
// skills and gains (groups are disjoint and per-group gains are summed
// in group order), a property the test suite asserts.
//
// It is a package-level tuning knob read at every round; set it once at
// startup (or from a test) — it is not synchronized for concurrent
// mutation.
var ParallelRoundThreshold = 1 << 15

// ParallelRoundWorkers overrides the worker count of the parallel
// round path; 0 (the default) uses runtime.GOMAXPROCS(0). Like
// ParallelRoundThreshold it is a package-level tuning knob read at
// every round, meant to be set once at startup or from a test/bench
// harness (peerbench uses it to assert serial-vs-parallel gain
// equality on single-CPU runners); it is not synchronized for
// concurrent mutation.
var ParallelRoundWorkers = 0

// Workspace holds reusable scratch state for round application and
// gain evaluation. A zero-cost way to make the per-round hot path
// allocation-free at steady state: buffers grow to the high-water mark
// of the instance and are reused round after round.
//
// A Workspace is not safe for concurrent use; each goroutine needs its
// own (the package-level ApplyRound/GroupGain/AggregateGain wrappers
// draw from a sync.Pool, so one-shot callers also hit warm buffers).
// The simulator (Run, RunSized) keeps one Workspace per simulation.
type Workspace struct {
	serial groupScratch   // scratch for the serial path and one-shot gain calls
	vals   []float64      // scratch skill values for GroupGain
	gains  []float64      // per-group gains for the parallel path
	seen   []bool         // grouping-validation scratch
	shards []groupScratch // per-worker scratch for the parallel path
}

// NewWorkspace returns an empty workspace; buffers are grown on first
// use.
func NewWorkspace() *Workspace { return &Workspace{} }

// workspacePool backs the package-level one-shot entry points
// (ApplyRound, GroupGain, AggregateGain) so that callers without a
// long-lived Workspace — the server's /v1/group preview, the
// annealer's generic fallback — still reuse warm buffers.
var workspacePool = sync.Pool{New: func() any { return NewWorkspace() }}

// ApplyRoundInPlace performs one learning round directly on s: it
// validates the inputs, applies the mode's skill update under grouping
// g, and returns the round's aggregated learning gain. Unlike the
// package-level ApplyRound it does NOT clone s — the caller owns the
// mutation — and at steady state (buffers warmed to the instance size)
// it performs no heap allocations on the serial path.
//
//peerlint:hotpath
func (w *Workspace) ApplyRoundInPlace(s Skills, g Grouping, mode Mode, gain Gain) (float64, error) {
	if !mode.Valid() {
		return 0, fmt.Errorf("core: invalid mode %v", mode)
	}
	if gain == nil {
		return 0, fmt.Errorf("core: nil gain function")
	}
	if err := g.validate(len(s), w.seenScratch(len(s))); err != nil {
		return 0, err
	}
	return w.applyRound(s, g, mode, gain), nil
}

// GroupGain computes the learning gain of a single group (eq. 1 for
// Star, eq. 2 for Clique) on the current skills without modifying
// them, using the workspace's scratch buffers; it allocates nothing at
// steady state.
//
//peerlint:hotpath
func (w *Workspace) GroupGain(s Skills, group []int, mode Mode, gain Gain) float64 {
	vals := w.vals[:0]
	for _, p := range group {
		vals = append(vals, s[p])
	}
	w.vals = vals // keep the grown buffer
	switch {
	case descendingSorted(vals):
		// Already descending: sorting is the identity (gains depend on
		// values only, so tie order is immaterial).
	case len(vals) >= radixSortMinLen:
		w.serial.radix.sortFloatsDesc(vals)
	default:
		slices.SortFunc(vals, cmpFloatDesc)
	}
	switch mode {
	case Star:
		return starGainSorted(vals, gain)
	case Clique:
		return cliqueGainSorted(vals, gain)
	default:
		// Unreachable through the exported entry points, which all
		// reject invalid modes up front; GroupGain itself stays
		// error-free because it sits on the annealer's hot loop.
		//peerlint:allow panicfree — invariant check; mode validated by every caller
		panic(fmt.Sprintf("core: GroupGain on invalid mode %v", mode))
	}
}

// AggregateGain computes the aggregated learning gain LG(G) of a
// grouping (eq. 3) using the workspace's scratch buffers.
//
//peerlint:hotpath
func (w *Workspace) AggregateGain(s Skills, g Grouping, mode Mode, gain Gain) float64 {
	var total float64
	for _, grp := range g {
		total += w.GroupGain(s, grp, mode, gain)
	}
	return total
}

// ValidateEqui is Grouping.ValidateEqui on the workspace's membership
// scratch; it allocates nothing at steady state.
func (w *Workspace) ValidateEqui(g Grouping, n, k int) error {
	return g.validateEqui(n, k, w.seenScratch(n))
}

// seenScratch returns the validation scratch sized for n participants.
func (w *Workspace) seenScratch(n int) []bool {
	if cap(w.seen) < n {
		w.seen = make([]bool, n)
	}
	return w.seen[:n]
}

// applyRound updates s under grouping g and returns the round's
// aggregated learning gain. Inputs are assumed validated. Large rounds
// are sharded across a bounded worker pool; small ones run serially
// and allocation-free.
func (w *Workspace) applyRound(s Skills, g Grouping, mode Mode, gain Gain) float64 {
	if len(s) >= ParallelRoundThreshold && len(g) >= 2 {
		workers := ParallelRoundWorkers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(g) {
			workers = len(g)
		}
		if workers > 1 {
			return w.applyRoundParallel(s, g, mode, gain, workers)
		}
	}
	return w.applyRoundSerial(s, g, mode, gain)
}

// applyRoundSerial is the single-goroutine round application; it
// allocates nothing once the scratch buffers have grown to the largest
// group size.
func (w *Workspace) applyRoundSerial(s Skills, g Grouping, mode Mode, gain Gain) float64 {
	var total float64
	for _, grp := range g {
		total += applyGroupSorted(s, grp, mode, gain, &w.serial)
	}
	return total
}

// applyRoundParallel shards the groups of one round over `workers`
// goroutines. Groups partition the participants, so the per-group
// updates write disjoint regions of s; per-group gains land in a
// per-group slot and are summed in group order afterwards, making the
// result — skills and total gain — bit-identical to the serial path
// regardless of scheduling.
func (w *Workspace) applyRoundParallel(s Skills, g Grouping, mode Mode, gain Gain, workers int) float64 {
	if cap(w.gains) < len(g) {
		w.gains = make([]float64, len(g))
	}
	gains := w.gains[:len(g)]
	if len(w.shards) < workers {
		w.shards = make([]groupScratch, workers)
	}
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		lo := wi * len(g) / workers
		hi := (wi + 1) * len(g) / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		// Worker spawns allocate goroutine frames, but this path only
		// runs above ParallelRoundThreshold, where the per-round update
		// dwarfs the handoff; the serial path stays allocation-free.
		//peerlint:allow hotalloc — bounded worker fan-out, taken only above ParallelRoundThreshold
		go func(sc *groupScratch, lo, hi int) {
			defer wg.Done()
			for gi := lo; gi < hi; gi++ {
				gains[gi] = applyGroupSorted(s, g[gi], mode, gain, sc)
			}
		}(&w.shards[wi], lo, hi)
	}
	wg.Wait()
	var total float64
	for _, v := range gains {
		total += v
	}
	return total
}

// applyGroupSorted applies one group's skill update: it gathers the
// member skills into the scratch value lane, derives their descending
// rank order, applies the mode's update rule to s, and returns the
// group's gain. All new skills are computed from the pre-round values
// (the clique deltas are staged in scratch before write-back), so
// within-round updates do not feed each other.
//
// The gather pass doubles as a sortedness check: DyGroups' Star and
// Clique policies both emit groups whose members are already in
// descending skill order, and a stable descending sort of an already
// stably-descending list is the identity — so for those groups the
// rank lane is skipped entirely (pos == nil means rank i is member i).
func applyGroupSorted(s Skills, grp []int, mode Mode, gain Gain, scratch *groupScratch) float64 {
	t := len(grp)
	if t < 2 {
		return 0
	}
	if cap(scratch.vals) < t {
		scratch.vals = make([]float64, t)
	}
	vals := scratch.vals[:t]
	for i, p := range grp {
		vals[i] = s[p]
	}
	var pos []int32 // nil ⇒ identity: vals is already stably descending
	if !descendingSorted(vals) {
		pos = sortPosDesc(vals, scratch)
	}
	switch mode {
	case Star:
		return updateStarSoA(s, grp, vals, pos, gain)
	case Clique:
		return updateCliqueSoA(s, grp, vals, pos, gain, scratch)
	}
	return 0 // unreachable: mode validated by every caller
}

// sortPosDesc returns the descending rank order of vals — the exact
// (skill desc, position asc) stable order — as an index lane into
// vals. Large groups take the radix kernel; below the cutover the
// comparison sort on (skill, pos) pairs wins and its result is
// transposed into the position lane.
func sortPosDesc(vals []float64, scratch *groupScratch) []int32 {
	t := len(vals)
	if t >= radixSortMinLen {
		return scratch.radix.rankDesc(vals)
	}
	pairs := scratch.pairs[:0]
	if cap(pairs) < t {
		pairs = make([]skillPair, 0, t)
	}
	for i, v := range vals {
		pairs = append(pairs, skillPair{skill: v, pos: i})
	}
	scratch.pairs = pairs // keep the grown buffer
	slices.SortFunc(pairs, cmpSkillPairDesc)
	if cap(scratch.pos) < t {
		scratch.pos = make([]int32, t)
	}
	pos := scratch.pos[:t]
	for i, pr := range pairs {
		pos[i] = int32(pr.pos)
	}
	return pos
}

// updateStarSoA applies the Star update (eq. 1): everyone below the
// teacher moves toward the teacher by f(Δ). Each update is O(1), so
// the whole round is O(n) as Section III-A observes. vals holds the
// member skills in group order; pos is their descending rank order, or
// nil when vals is already descending.
func updateStarSoA(s Skills, grp []int, vals []float64, pos []int32, gain Gain) float64 {
	var g float64
	if pos == nil {
		top := vals[0]
		for i := 1; i < len(vals); i++ {
			d := gain.Apply(top - vals[i])
			s[grp[i]] += d
			g += d
		}
		return g
	}
	top := vals[pos[0]]
	for _, p := range pos[1:] {
		d := gain.Apply(top - vals[p])
		s[grp[p]] += d
		g += d
	}
	return g
}

// updateCliqueSoA applies the Clique update (eq. 2). For the linear
// gain it runs in O(t) via the prefix-sum identity of Theorem 3 (with
// the paper's typo corrected:
// s'_{i+1} = s_{i+1} + r·(c_i − i·s_{i+1})/i, c_i = Σ_{j≤i} s_j); for
// general gains it evaluates all O(t²) pairwise interactions. The
// rank-indexed loops are duplicated for the pos == nil identity case
// so the common pre-sorted path streams vals with no index lane.
func updateCliqueSoA(s Skills, grp []int, vals []float64, pos []int32, gain Gain, scratch *groupScratch) float64 {
	t := len(vals)
	deltas := scratch.deltas
	if cap(deltas) < t {
		deltas = make([]float64, t)
	}
	deltas = deltas[:t]
	scratch.deltas = deltas // keep the grown buffer
	if r, ok := linearRate(gain); ok {
		var prefix float64
		if pos == nil {
			for i := 1; i < t; i++ {
				prefix += vals[i-1]
				deltas[i] = r * (prefix - float64(i)*vals[i]) / float64(i)
			}
		} else {
			for i := 1; i < t; i++ {
				prefix += vals[pos[i-1]]
				deltas[i] = r * (prefix - float64(i)*vals[pos[i]]) / float64(i)
			}
		}
	} else if pos == nil {
		for i := 1; i < t; i++ {
			si := vals[i]
			var sum float64
			for j := 0; j < i; j++ {
				sum += gain.Apply(vals[j] - si)
			}
			deltas[i] = sum / float64(i)
		}
	} else {
		for i := 1; i < t; i++ {
			si := vals[pos[i]]
			var sum float64
			for j := 0; j < i; j++ {
				sum += gain.Apply(vals[pos[j]] - si)
			}
			deltas[i] = sum / float64(i)
		}
	}
	var g float64
	if pos == nil {
		for i := 1; i < t; i++ {
			s[grp[i]] += deltas[i]
			g += deltas[i]
		}
	} else {
		for i := 1; i < t; i++ {
			s[grp[pos[i]]] += deltas[i]
			g += deltas[i]
		}
	}
	return g
}
