package raid

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ros/internal/blockdev"
	"ros/internal/chunk"
	"ros/internal/sim"
)

// A full stripe that WriteFrom lends is written with its parity as a
// chunk.XOR recipe over its columns: the parity member keeps the recipe by
// reference and computes its bytes only when something reads them. These
// tests flush such stripes and then read, corrupt, lose and rewrite them.

const recipeStripes = 5 // every member of a 5-disk array holds parity once

// flushed runs fn on a 5-disk RAID-5 with a one-chunk stripe unit, after
// flushing recipeStripes full stripes onto it through WriteFrom, one
// WriteFrom a stripe, from a store of fresh bytes or, if recipes, of recipes
// over two other stores (as an image parity slot holds). want is what the
// array must read; before and after are each member's AllocatedBytes around
// each stripe's flush.
func flushed(t *testing.T, recipes bool, fn func(p *sim.Proc, a *Array, disks []*blockdev.Disk, want []byte, before, after [][]int64)) {
	t.Helper()
	const su = chunk.Size
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	a, disks := newArray(t, env, RAID5, 5, recipeStripes*su, su)
	size := a.Size()
	rng := rand.New(rand.NewSource(1))
	want := make([]byte, size)
	var src chunk.Store
	if recipes {
		var srcs [2]chunk.Store
		lent := make([][]chunk.Piece, len(srcs))
		for i := range srcs {
			b := make([]byte, size)
			rng.Read(b)
			srcs[i].WriteAt(b, 0)
			xorSlice(b, want)
			lent[i] = srcs[i].Lend(nil, 0, size)
		}
		src.Adopt(0, chunk.XOR(nil, int(size), lent))
	} else {
		rng.Read(want)
		src.WriteAt(want, 0)
	}
	inSim(t, env, func(p *sim.Proc) {
		stripeBytes := size / recipeStripes
		var before, after [][]int64
		for s := int64(0); s < recipeStripes; s++ {
			before, after = append(before, allocated(disks)), append(after, nil)
			if err := a.WriteFrom(p, &src, s*stripeBytes, stripeBytes); err != nil {
				t.Fatalf("WriteFrom stripe %d: %v", s, err)
			}
			after[s] = allocated(disks)
		}
		got := make([]byte, size)
		if err := a.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("the flushed array does not read what was flushed (err %v)", err)
		}
		fn(p, a, disks, want, before, after)
	})
}

func allocated(disks []*blockdev.Disk) []int64 {
	n := make([]int64, len(disks))
	for i, d := range disks {
		n[i] = d.AllocatedBytes()
	}
	return n
}

// forFills runs a subtest per kind of store a flush lends from.
func forFills(t *testing.T, fn func(t *testing.T, recipes bool)) {
	for _, recipes := range []bool{false, true} {
		t.Run(fmt.Sprintf("recipes=%v", recipes), func(t *testing.T) { fn(t, recipes) })
	}
}

// scrubbed returns the stripes Scrub flags.
func scrubbed(t *testing.T, p *sim.Proc, a *Array) []int64 {
	t.Helper()
	res, err := a.Scrub(p)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	return res.Mismatches
}

// TestFlushedParityCostsNoChunk: flushing a full stripe adds a chunk to each
// data member that holds bytes and nothing to the parity member, which
// keeps a recipe.
func TestFlushedParityCostsNoChunk(t *testing.T) {
	forFills(t, func(t *testing.T, recipes bool) {
		flushed(t, recipes, func(p *sim.Proc, a *Array, disks []*blockdev.Disk, _ []byte, before, after [][]int64) {
			for s := range before {
				for d := range disks {
					grew, want := after[s][d]-before[s][d], int64(chunk.Size)
					if d == a.pDev(int64(s)) || recipes {
						want = 0
					}
					if grew != want {
						t.Errorf("stripe %d: member %d (parity member %d) grew %d bytes, want %d", s, d, a.pDev(int64(s)), grew, want)
					}
				}
			}
			if bad := scrubbed(t, p, a); len(bad) > 0 {
				t.Errorf("Scrub flags stripes %v of a clean flush", bad)
			}
		})
	})
}

// TestScrubFlagsAFlippedRecipeParity: a flipped byte in a recipe parity
// chunk materialises it with the flip, and Scrub flags that stripe alone.
func TestScrubFlagsAFlippedRecipeParity(t *testing.T) {
	forFills(t, func(t *testing.T, recipes bool) {
		flushed(t, recipes, func(p *sim.Proc, a *Array, disks []*blockdev.Disk, _ []byte, _, _ [][]int64) {
			const s = 2
			disks[a.pDev(s)].FlipByte(s*chunk.Size + 123)
			if bad := scrubbed(t, p, a); !slices.Equal(bad, []int64{s}) {
				t.Errorf("Scrub flags stripes %v after a flip in stripe %d's parity, want [%d]", bad, s, s)
			}
		})
	})
}

// TestRecipeParityKeepsFlushedBytes: a flipped byte in a data member does not
// reach the parity recipe, which refers to the bytes flushed. Scrub flags the
// stripe, and a degraded read of the flipped member rebuilds the byte that
// was flushed.
func TestRecipeParityKeepsFlushedBytes(t *testing.T) {
	forFills(t, func(t *testing.T, recipes bool) {
		flushed(t, recipes, func(p *sim.Proc, a *Array, disks []*blockdev.Disk, want []byte, _, _ [][]int64) {
			const s, col, coff = 3, 1, 777
			victim := disks[a.dataDev(s, col)]
			victim.FlipByte(s*chunk.Size + coff)
			if bad := scrubbed(t, p, a); !slices.Equal(bad, []int64{s}) {
				t.Errorf("Scrub flags stripes %v after a flip in stripe %d's column %d, want [%d]", bad, s, col, s)
			}
			off := s*int64(chunk.Size)*int64(a.dataPerStripe()) + col*chunk.Size
			got := make([]byte, chunk.Size)
			if err := a.ReadAt(p, got, off); err != nil || got[coff] == want[off+coff] {
				t.Errorf("the flipped byte reads back unflipped (err %v)", err)
			}
			victim.Fail()
			if err := a.ReadAt(p, got, off); err != nil || !bytes.Equal(got, want[off:off+chunk.Size]) {
				t.Errorf("a degraded read of the flipped column does not return the bytes flushed (err %v)", err)
			}
		})
	})
}

// TestRecipeParityServesDegradedReadsAndRebuild: with any one member lost, the
// array reads what was flushed, and a rebuild onto a fresh member restores
// it with clean parity.
func TestRecipeParityServesDegradedReadsAndRebuild(t *testing.T) {
	forFills(t, func(t *testing.T, recipes bool) {
		flushed(t, recipes, func(p *sim.Proc, a *Array, disks []*blockdev.Disk, want []byte, _, _ [][]int64) {
			got := make([]byte, len(want))
			for victim, d := range disks {
				d.Fail()
				if err := a.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("member %d lost: the degraded read does not return the bytes flushed (err %v)", victim, err)
				}
				if err := a.Rebuild(p, victim, blockdev.New(p.Env(), d.Size(), blockdev.SSDProfile())); err != nil {
					t.Fatalf("Rebuild(%d): %v", victim, err)
				}
				if err := a.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("member %d rebuilt: the array does not return the bytes flushed (err %v)", victim, err)
				}
			}
			if bad := scrubbed(t, p, a); len(bad) > 0 {
				t.Errorf("Scrub flags stripes %v after every member was rebuilt", bad)
			}
		})
	})
}

// TestPartialWriteMaterialisesRecipeParity: a 4 KB write into a flushed
// stripe reads the parity recipe's window and writes the parity, which
// materialises exactly one chunk, the parity member's; the data member copies
// the chunk it shares with the flushed store in place of it.
func TestPartialWriteMaterialisesRecipeParity(t *testing.T) {
	flushed(t, false, func(p *sim.Proc, a *Array, disks []*blockdev.Disk, want []byte, _, _ [][]int64) {
		const s, col, coff = 1, 2, 1000
		off := s*int64(chunk.Size)*int64(a.dataPerStripe()) + col*chunk.Size + coff
		data := patterned(4096, 0x5A)
		before := allocated(disks)
		if err := a.WriteAt(p, data, off); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		copy(want[off:], data)
		after := allocated(disks)
		for d := range disks {
			grew, wantGrew := after[d]-before[d], int64(0)
			if d == a.pDev(s) {
				wantGrew = chunk.Size
			}
			if grew != wantGrew {
				t.Errorf("member %d (parity member %d) grew %d bytes, want %d", d, a.pDev(s), grew, wantGrew)
			}
		}
		got := make([]byte, len(want))
		if err := a.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, want) {
			t.Errorf("the array does not read the partial write over the flush (err %v)", err)
		}
		if bad := scrubbed(t, p, a); len(bad) > 0 {
			t.Errorf("Scrub flags stripes %v after a partial write", bad)
		}
	})
}
