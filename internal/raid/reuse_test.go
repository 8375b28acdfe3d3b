package raid

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ros/internal/blockdev"
	"ros/internal/sim"
)

// TestConcurrentWritersShareScratch interleaves full-stripe writes and partial
// ones of both plans from several processes with readers, on healthy and
// degraded RAID-5 (the lost member is parity in some stripes and a touched or
// untouched data column in others). Every writer owns whole stripes (the
// array has no stripe lock), so the final content is known exactly. A scratch buffer handed to two
// stripes at once, or put back before the device writes that use it have
// copied it, corrupts data or parity and fails the read-back or the scrub.
func TestConcurrentWritersShareScratch(t *testing.T) {
	const (
		su      = 4096
		writers = 4
		readers = 2
		rounds  = 40
	)
	for _, tc := range []struct {
		level    Level
		disks    int
		degraded bool
	}{
		{RAID5, 5, false}, {RAID5, 5, true},
	} {
		t.Run(fmt.Sprintf("%s/degraded=%v", tc.level, tc.degraded), func(t *testing.T) {
			env := sim.NewEnv()
			a, disks := newArray(t, env, tc.level, tc.disks, 64*su, su)
			stripeBytes := su * a.dataPerStripe()
			region := int(a.Size()) / writers / stripeBytes * stripeBytes
			ref := make([]byte, a.Size())
			const victim = 2
			if tc.degraded {
				disks[victim].Fail()
			}
			// A degraded array stores everything but the failed member's chunk
			// and reports that member's error.
			wrote := func(err error) bool {
				return err == nil || tc.degraded && errors.Is(err, blockdev.ErrFailed)
			}
			running := writers
			for w := 0; w < writers; w++ {
				w := w
				env.Go(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
					defer func() { running-- }()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					base := w * region
					for i := 0; i < rounds; i++ {
						var off, n int
						switch i % 3 {
						case 0: // whole stripes
							n = (1 + rng.Intn(2)) * stripeBytes
							off = rng.Intn((region-n)/stripeBytes+1) * stripeBytes
						case 1: // within a chunk or two: read-modify-write
							n = 1 + rng.Intn(su)
							off = rng.Intn(region - n + 1)
						default: // a ragged run across stripes: mostly reconstruct-write
							n = 1 + rng.Intn(2*stripeBytes)
							off = rng.Intn(region - n + 1)
						}
						data := patterned(n, byte(w*rounds+i))
						if err := a.WriteAt(p, data, int64(base+off)); !wrote(err) {
							t.Errorf("writer %d: WriteAt(off=%d len=%d): %v", w, base+off, n, err)
							return
						}
						copy(ref[base+off:], data)
					}
				})
			}
			for r := 0; r < readers; r++ {
				r := r
				env.Go(fmt.Sprintf("reader%d", r), func(p *sim.Proc) {
					rng := rand.New(rand.NewSource(int64(100 + r)))
					buf := make([]byte, 3*stripeBytes)
					for running > 0 {
						n := 1 + rng.Intn(len(buf))
						off := rng.Int63n(a.Size() - int64(n) + 1)
						if err := a.ReadAt(p, buf[:n], off); err != nil {
							t.Errorf("reader %d: ReadAt(off=%d len=%d): %v", r, off, n, err)
							return
						}
					}
				})
			}
			env.Run()
			if env.Deadlocked() {
				t.Fatal("simulation deadlocked")
			}
			inSim(t, env, func(p *sim.Proc) {
				got := make([]byte, a.Size())
				if err := a.ReadAt(p, got, 0); err != nil {
					t.Fatalf("ReadAt: %v", err)
				}
				if !bytes.Equal(got, ref) {
					t.Fatal("content differs from the reference after concurrent writes")
				}
				if tc.degraded {
					fresh := blockdev.New(env, disks[victim].Size(), blockdev.SSDProfile())
					if err := a.Rebuild(p, victim, fresh); err != nil {
						t.Fatalf("Rebuild: %v", err)
					}
				}
				res, err := a.Scrub(p)
				if err != nil {
					t.Fatalf("Scrub: %v", err)
				}
				if len(res.Mismatches) != 0 {
					t.Fatalf("Scrub: %d of %d stripes have bad parity: %v",
						len(res.Mismatches), res.StripesChecked, res.Mismatches)
				}
				if err := a.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, ref) {
					t.Fatalf("content differs from the reference after scrub (err=%v)", err)
				}
			})
		})
	}
}

// TestXorKernelMatchesByteLoop checks xorSlice and mulSliceXor against
// byte-at-a-time references over short and block-sized lengths, on sub-slices
// that are not word-aligned, and with dst and src the same slice.
func TestXorKernelMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{64<<10 - 1, 64 << 10, 64<<10 + 1}
	for n := 0; n <= 130; n++ {
		lengths = append(lengths, n)
	}
	backing := func() []byte {
		b := make([]byte, 64<<10+16)
		rng.Read(b)
		return b
	}
	for _, n := range lengths {
		for _, shift := range [][2]int{{0, 0}, {1, 0}, {0, 3}, {5, 7}} {
			src := backing()[shift[0]:][:n]
			dst := backing()[shift[1]:][:n]
			want := make([]byte, n)
			for i := range want {
				want[i] = dst[i] ^ src[i]
			}
			xorSlice(src, dst)
			if !bytes.Equal(dst, want) {
				t.Fatalf("xorSlice len=%d shift=%v differs from the byte loop", n, shift)
			}
		}
		same := backing()[1:][:n]
		xorSlice(same, same)
		if !bytes.Equal(same, make([]byte, n)) {
			t.Fatalf("xorSlice(x, x) len=%d is not zero", n)
		}
	}
	for c := 0; c < 256; c++ {
		for _, n := range []int{0, 1, 7, 130, 4097} {
			src := backing()[3:][:n]
			dst := backing()[1:][:n]
			want := make([]byte, n)
			for i := range want {
				want[i] = dst[i] ^ gfMulNoTable(byte(c), src[i])
			}
			mulSliceXor(byte(c), src, dst)
			if !bytes.Equal(dst, want) {
				t.Fatalf("mulSliceXor c=%d len=%d differs from the reference", c, n)
			}
		}
	}
}

// writeAllocBudget holds the steady-state host cost of one repeated write
// shape: len(buf) bytes at off(i) for i = 0, 1, ..., on a RAID-5 array of
// disks 16 MB HDDs with a 64 KB stripe unit. Stripe and parity scratch and
// the member-request tables come off the array's free lists, and the fan-out
// children's Procs off the Env's, so a write allocates nothing once warm:
// the first rounds (which materialize the sparse disks' chunks) are not
// counted.
func writeAllocBudget(t *testing.T, what string, disks int, buf []byte, off func(i int) int64, warm int) {
	t.Helper()
	res := testing.Benchmark(func(b *testing.B) {
		env := sim.NewEnv()
		defer env.Close()
		devs := make([]blockdev.Device, disks)
		for i := range devs {
			devs[i] = blockdev.New(env, 16<<20, blockdev.HDDProfile())
		}
		a, err := New(env, RAID5, devs, 64<<10)
		if err != nil {
			b.Fatal(err)
		}
		env.Go("writer", func(p *sim.Proc) {
			write := func(i int) {
				if err := a.WriteAt(p, buf, off(i)); err != nil {
					b.Error(err)
				}
			}
			for i := 0; i < warm; i++ {
				write(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				write(i)
			}
		})
		env.Run()
	})
	const maxBytes, maxAllocs = 16 << 10, 2
	if got, n := res.AllocedBytesPerOp(), res.AllocsPerOp(); got > maxBytes || n > maxAllocs {
		t.Errorf("%s allocates %d B/op in %d allocs/op, budget is %d B in %d", what, got, n, maxBytes, maxAllocs)
	} else {
		t.Logf("%s: %d B/op, %d allocs/op", what, got, n)
	}
}

// TestSmallWriteAllocBudget is the hot case, a 4 KB sub-stripe write (a
// read-modify-write: 2 reads and 2 writes) on the paper's 7-disk RAID-5
// buffer. It was ~450 KB/op when every write allocated its stripe, and 28
// allocs/op when every member I/O was a process with its own closure and
// Completion.
func TestSmallWriteAllocBudget(t *testing.T) {
	const stripes = 32
	stripeBytes := int64(6 * 64 << 10)
	writeAllocBudget(t, "4 KB RAID-5 write", 7, patterned(4096, 9),
		func(i int) int64 { return int64(i%stripes)*stripeBytes + 8192 }, stripes)
}

// TestFullStripeWriteAllocBudget is a 1 MB write of four full stripes on a
// 5-disk RAID-5: a stripe-level fan-out over member-level ones, 20 member
// writes, with parity computed from the caller's buffer.
func TestFullStripeWriteAllocBudget(t *testing.T) {
	const slots = 8
	writeAllocBudget(t, "1 MB full-stripe RAID-5 write", 5, patterned(1<<20, 3),
		func(i int) int64 { return int64(i%slots) << 20 }, slots)
}
