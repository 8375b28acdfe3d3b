// Reallocation-free data placement for the rack federation.
//
// The placer implements the Sequential Checking distribution (Wan et al.,
// arXiv:1707.00904): each key derives a deterministic pseudo-random probe
// sequence over the racks, and the first probed rack whose load is at or
// below the eligible-rack mean accepts the replica. Placements
// are recorded once and never recomputed, so growing the federation by a
// rack never relocates an existing disc image — new keys simply start
// probing over the larger rack set, and the load check steers them toward
// the empty newcomer until the federation rebalances. That is exactly the
// property cold optical media need: migration means physically re-burning
// write-once discs. A stateless modulo placer (key mod rack count) would
// balance as well but relocate ~n/(n+1) of all images on every growth step;
// TestHashPolicyRelocatesOnGrowth measures that on keyHash alone.
package cluster

import "slices"

// placer assigns replica sets to keys and tracks per-rack replica counts.
// It is pure bookkeeping on the host side — placement costs no virtual time.
type placer struct {
	loads []int64 // replicas currently placed per rack
	total int64
}

func newPlacer(racks int) *placer {
	return &placer{loads: make([]int64, racks)}
}

// grow extends the placer by one empty rack. Existing assignments are
// untouched: that is the whole point of recording placements.
func (pl *placer) grow() { pl.loads = append(pl.loads, 0) }

// keyHash is the 64-bit FNV-1a of the key, the seed of its probe sequence.
func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// probe returns the j-th candidate rack of key's probe sequence over n racks
// (splitmix64 over the key hash, so the sequence is uniform, deterministic
// and extends consistently as n grows).
func probe(h uint64, j, n int) int {
	x := h + uint64(j)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// place assigns want distinct racks to key among the eligible ones (nil
// eligible means all racks) and commits the loads. Fewer than want racks
// come back when not enough are eligible; zero when none are.
func (pl *placer) place(key string, want int, eligible func(int) bool) []int {
	n := len(pl.loads)
	if n == 0 || want <= 0 {
		return nil
	}
	live := 0
	liveLoad := int64(0)
	for i := 0; i < n; i++ {
		if eligible == nil || eligible(i) {
			live++
			liveLoad += pl.loads[i]
		}
	}
	if live == 0 {
		return nil
	}
	if want > live {
		want = live
	}
	chosen := make([]int, 0, want)
	ok := func(c int) bool {
		return (eligible == nil || eligible(c)) && !slices.Contains(chosen, c)
	}
	// Sequential Checking: walk the probe sequence and accept a candidate iff
	// its load is at or below the eligible-rack average. Over-average racks
	// stall until the mean catches them, so a freshly added empty rack absorbs
	// new placements until it has fully caught up — that is what keeps every
	// rack within the balance budget without ever moving an old image.
	h := keyHash(key)
	for j := 0; len(chosen) < want && j < 4*n+8; j++ {
		c := probe(h, j, n)
		if !ok(c) {
			continue
		}
		// loads[c] <= liveLoad/live, in overflow-safe integer form.
		if pl.loads[c]*int64(live) <= liveLoad {
			chosen = append(chosen, c)
			liveLoad++
		}
	}
	// Fallback for exhausted probe sequences (tiny federations, hot tails):
	// take the least-loaded eligible racks, lowest index on ties.
	for len(chosen) < want {
		best := -1
		for c := 0; c < n; c++ {
			if ok(c) && (best < 0 || pl.loads[c] < pl.loads[best]) {
				best = c
			}
		}
		chosen = append(chosen, best)
	}
	return pl.commit(chosen)
}

func (pl *placer) commit(chosen []int) []int {
	for _, c := range chosen {
		pl.loads[c]++
		pl.total++
	}
	return chosen
}

// claim re-adds one replica's worth of load on rack ri (an overwrite that
// failed everywhere keeps its old replica set, so its loads come back).
func (pl *placer) claim(ri int) {
	if ri >= 0 && ri < len(pl.loads) {
		pl.loads[ri]++
		pl.total++
	}
}

// unplace releases one replica's worth of load on rack ri (an offline
// replica dropped after re-replication).
func (pl *placer) unplace(ri int) {
	if ri >= 0 && ri < len(pl.loads) && pl.loads[ri] > 0 {
		pl.loads[ri]--
		pl.total--
	}
}

// imbalancePct is the largest per-rack deviation from the mean load, in
// percent of the mean (0 when the federation is empty).
func (pl *placer) imbalancePct() float64 {
	n := len(pl.loads)
	if n == 0 || pl.total == 0 {
		return 0
	}
	mean := float64(pl.total) / float64(n)
	worst := 0.0
	for _, l := range pl.loads {
		d := float64(l) - mean
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return 100 * worst / mean
}
