package main

import (
	"math"
	"testing"
)

// TestRNGPinned pins splitmix64's reference stream for seed 0, so the
// inputs a seed names can never drift.
func TestRNGPinned(t *testing.T) {
	r := newRNG(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := r.next(); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
	r = newRNG(1)
	if got := math.Float64bits(r.skill()); got != pinnedSkill {
		t.Fatalf("first skill of seed 1 has bits %#x, want %#x", got, pinnedSkill)
	}
}

const pinnedSkill = 0x4005607849f8a56e

func TestZipfPinned(t *testing.T) {
	z := newZipf(8, 1.1)
	r := newRNG(7)
	var got []int
	for i := 0; i < 12; i++ {
		got = append(got, z.pick(r.float64()))
	}
	want := []int{0, 0, 5, 1, 1, 0, 1, 0, 0, 1, 0, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("picks %v, want %v", got, want)
		}
	}
	if z.pick(0) != 0 || z.pick(math.Nextafter(1, 0)) != 7 {
		t.Fatal("the ends of [0,1) map to the first and last slots")
	}
	// Slot 0 is the hottest: with s = 1.1 over 8 slots it draws ~40%.
	hits := 0
	for i := 0; i < 100000; i++ {
		if z.pick(r.float64()) == 0 {
			hits++
		}
	}
	if hits < 38000 || hits > 42000 {
		t.Fatalf("slot 0 drew %d of 100000", hits)
	}
}

// TestPlannerKeepsRostersSeatable checks the planner never plans a
// session below two groups, so no planned round or leave can fail.
func TestPlannerKeepsRostersSeatable(t *testing.T) {
	p := newPlanner(3, 4, 16, 4, churnMix)
	size := []int{16, 16, 16, 16}
	ops := p.schedule(1000, 20e9)
	for i, o := range ops {
		switch o.kind {
		case opJoin:
			size[o.slot]++
		case opLeave:
			size[o.slot]--
		default:
		}
		if size[o.slot] < 8 || size[o.slot] > 24 {
			t.Fatalf("op %d takes session %d to %d members", i, o.slot, size[o.slot])
		}
		if i > 0 && o.at <= ops[i-1].at {
			t.Fatalf("op %d not after op %d", i, i-1)
		}
	}
	again := newPlanner(3, 4, 16, 4, churnMix).schedule(1000, 20e9)
	for i := range ops {
		if ops[i] != again[i] {
			t.Fatalf("op %d differs between two plans of one seed", i)
		}
	}
}
