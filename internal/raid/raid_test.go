package raid

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"ros/internal/blockdev"
	"ros/internal/sim"
)

// newArray builds an array of n SSD-profile disks of devSize bytes.
func newArray(t *testing.T, env *sim.Env, level Level, n int, devSize int64, su int) (*Array, []*blockdev.Disk) {
	t.Helper()
	disks := make([]*blockdev.Disk, n)
	devs := make([]blockdev.Device, n)
	for i := range disks {
		disks[i] = blockdev.New(env, devSize, blockdev.SSDProfile())
		devs[i] = disks[i]
	}
	a, err := New(env, level, devs, su)
	if err != nil {
		t.Fatalf("New(%s, %d disks): %v", level, n, err)
	}
	return a, disks
}

// inSim runs fn as a simulation process to completion.
func inSim(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Go("test", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatal("simulation deadlocked")
	}
}

func patterned(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestGF256Axioms(t *testing.T) {
	// Spot-check field properties exhaustively enough to trust the tables.
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a * a^-1 = %d for a=%d", got, a)
		}
	}
	for a := 0; a < 256; a += 7 {
		for b := 0; b < 256; b += 11 {
			ab := gfMul(byte(a), byte(b))
			ba := gfMul(byte(b), byte(a))
			if ab != ba {
				t.Fatalf("multiplication not commutative at %d,%d", a, b)
			}
			if b != 0 && gfDiv(ab, byte(b)) != byte(a) {
				t.Fatalf("(a*b)/b != a at %d,%d", a, b)
			}
		}
	}
	// Distributivity sample.
	for a := 1; a < 250; a += 13 {
		x, y, z := byte(a), byte(a+3), byte(a+5)
		if gfMul(x, y^z) != gfMul(x, y)^gfMul(x, z) {
			t.Fatalf("not distributive at %d", a)
		}
	}
}

func TestPropertyGF256MulMatchesSlow(t *testing.T) {
	f := func(a, b byte) bool { return gfMul(a, b) == gfMulNoTable(a, b) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLevelRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		level Level
		n     int
	}{
		{RAID1, 2}, {RAID5, 3}, {RAID5, 7},
	} {
		t.Run(tc.level.String(), func(t *testing.T) {
			env := sim.NewEnv()
			a, _ := newArray(t, env, tc.level, tc.n, 1<<20, 4096)
			data := patterned(30000, byte(tc.n))
			inSim(t, env, func(p *sim.Proc) {
				if err := a.WriteAt(p, data, 5000); err != nil {
					t.Errorf("WriteAt: %v", err)
					return
				}
				got := make([]byte, len(data))
				if err := a.ReadAt(p, got, 5000); err != nil {
					t.Errorf("ReadAt: %v", err)
					return
				}
				if !bytes.Equal(got, data) {
					t.Error("round trip mismatch")
				}
			})
		})
	}
}

func TestRAID5DegradedRead(t *testing.T) {
	env := sim.NewEnv()
	a, disks := newArray(t, env, RAID5, 7, 1<<20, 4096)
	data := patterned(100000, 3)
	inSim(t, env, func(p *sim.Proc) {
		if err := a.WriteAt(p, data, 0); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		for victim := 0; victim < 7; victim++ {
			disks[victim].Fail()
			got := make([]byte, len(data))
			if err := a.ReadAt(p, got, 0); err != nil {
				t.Errorf("degraded read with disk %d failed: %v", victim, err)
			} else if !bytes.Equal(got, data) {
				t.Errorf("degraded read with disk %d returned wrong data", victim)
			}
			disks[victim].Repair()
		}
	})
}

func TestRAID5TripleFailureFails(t *testing.T) {
	env := sim.NewEnv()
	a, disks := newArray(t, env, RAID5, 5, 1<<20, 4096)
	inSim(t, env, func(p *sim.Proc) {
		if err := a.WriteAt(p, patterned(20000, 1), 0); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		disks[0].Fail()
		disks[1].Fail()
		err := a.ReadAt(p, make([]byte, 20000), 0)
		if err == nil {
			t.Error("RAID-5 read with two failures succeeded")
		}
	})
}

func TestRAID1MirrorRead(t *testing.T) {
	env := sim.NewEnv()
	a, disks := newArray(t, env, RAID1, 2, 1<<20, 0)
	data := patterned(5000, 2)
	inSim(t, env, func(p *sim.Proc) {
		if err := a.WriteAt(p, data, 100); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		disks[0].Fail()
		got := make([]byte, len(data))
		if err := a.ReadAt(p, got, 100); err != nil {
			t.Errorf("mirror read after primary failure: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("mirror data mismatch")
		}
		disks[1].Fail()
		if err := a.ReadAt(p, got, 100); !errors.Is(err, ErrTooManyFailed) {
			t.Errorf("read with all mirrors failed: %v, want ErrTooManyFailed", err)
		}
	})
}

// TestDegradedReadSkipsLostMember: a read that fails on a bad sector of
// member x rebuilds its chunk from the other members alone, from the moment
// the read would have started (when a 4 MB write already holding x ends).
// A 16 MB write queued on x after the read arrived does not delay it.
func TestDegradedReadSkipsLostMember(t *testing.T) {
	const su = 64 << 10
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	a, disks := newArray(t, env, RAID5, 3, 64<<20, su)
	data := patterned(su, 6)
	x := a.dataDev(0, 0)
	var queued time.Duration // when x's queue ends
	inSim(t, env, func(p *sim.Proc) {
		if err := a.WriteAt(p, data, 0); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		disks[x].CorruptSector(0)
		start := p.Now()
		held, err := disks[x].Book(blockdev.Access{Write: true, Off: 32 << 20, Buf: make([]byte, 4<<20)})
		if err != nil {
			t.Fatalf("holding write: %v", err)
		}
		env.Go("queue", func(qp *sim.Proc) {
			qp.Sleep(time.Millisecond)
			var err error
			if queued, err = disks[x].Book(blockdev.Access{Write: true, Off: 40 << 20, Buf: make([]byte, 16<<20)}); err != nil {
				t.Errorf("queued write: %v", err)
			}
		})
		got := make([]byte, su)
		if err := a.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("degraded read: err=%v, bytes match %v", err, bytes.Equal(got, data))
		}
		end := p.Now()
		t.Logf("x held until %v, queued until %v; the read ends at %v", held-start, queued-start, end-start)
		if end < held || end >= queued {
			t.Errorf("degraded read ends at %v, want after x's held write (%v) and before x's queue ends (%v)",
				end-start, held-start, queued-start)
		}
	})
}

// TestRebuildSecondFailureFails: Rebuild of one member while another is
// failed is beyond RAID-5 and returns ErrTooManyFailed.
func TestRebuildSecondFailureFails(t *testing.T) {
	env := sim.NewEnv()
	a, disks := newArray(t, env, RAID5, 4, 256<<10, 4096)
	inSim(t, env, func(p *sim.Proc) {
		if err := a.WriteAt(p, patterned(150000, 5), 0); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		disks[1].Fail()
		disks[2].Fail()
		repl := blockdev.New(env, 256<<10, blockdev.SSDProfile())
		if err := a.Rebuild(p, 2, repl); !errors.Is(err, ErrTooManyFailed) {
			t.Errorf("Rebuild with a second failed member = %v, want ErrTooManyFailed", err)
		}
	})
}

// TestRebuildRAID5 rebuilds every member in turn: each holds parity in some
// stripes and data in the others.
func TestRebuildRAID5(t *testing.T) {
	env := sim.NewEnv()
	a, disks := newArray(t, env, RAID5, 4, 256<<10, 4096)
	data := patterned(150000, 5)
	inSim(t, env, func(p *sim.Proc) {
		if err := a.WriteAt(p, data, 0); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		for idx, d := range disks {
			d.Fail()
			repl := blockdev.New(env, 256<<10, blockdev.SSDProfile())
			if err := a.Rebuild(p, idx, repl); err != nil {
				t.Fatalf("Rebuild(%d): %v", idx, err)
			}
			// All disks healthy again (the failed one replaced): full read.
			got := make([]byte, len(data))
			if err := a.ReadAt(p, got, 0); err != nil {
				t.Fatalf("ReadAt after rebuild(%d): %v", idx, err)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("data mismatch after rebuilding disk %d", idx)
			}
		}
		// Parity must also be consistent.
		res, err := a.Scrub(p)
		if err != nil {
			t.Fatalf("Scrub: %v", err)
		}
		if len(res.Mismatches) != 0 {
			t.Errorf("scrub found %d mismatches after rebuild", len(res.Mismatches))
		}
	})
}

func TestScrubDetectsCorruption(t *testing.T) {
	env := sim.NewEnv()
	a, disks := newArray(t, env, RAID5, 3, 64<<10, 4096)
	inSim(t, env, func(p *sim.Proc) {
		if err := a.WriteAt(p, patterned(40000, 4), 0); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		res, err := a.Scrub(p)
		if err != nil {
			t.Fatalf("Scrub: %v", err)
		}
		if len(res.Mismatches) != 0 {
			t.Fatalf("clean array scrub found mismatches: %v", res.Mismatches)
		}
		// Silently flip a byte on one member (bypassing the array).
		if err := disks[0].WriteAt(p, []byte{0xFF}, 0); err != nil {
			t.Fatalf("corrupt: %v", err)
		}
		res, err = a.Scrub(p)
		if err != nil {
			t.Fatalf("Scrub: %v", err)
		}
		if len(res.Mismatches) == 0 {
			t.Error("scrub missed injected corruption")
		}
	})
}

func TestUsableSize(t *testing.T) {
	env := sim.NewEnv()
	for _, tc := range []struct {
		level Level
		n     int
		want  int64
	}{
		{RAID1, 2, 1 << 20},
		{RAID5, 7, 6 << 20},
	} {
		a, _ := newArray(t, env, tc.level, tc.n, 1<<20, 64<<10)
		if a.Size() != tc.want {
			t.Errorf("%s x%d Size = %d, want %d", tc.level, tc.n, a.Size(), tc.want)
		}
	}
}

func TestTooFewDevices(t *testing.T) {
	env := sim.NewEnv()
	d := blockdev.New(env, 1<<20, blockdev.SSDProfile())
	if _, err := New(env, RAID5, []blockdev.Device{d, d}, 0); !errors.Is(err, ErrTooFewDevices) {
		t.Errorf("RAID5 with 2 devices: %v", err)
	}
	// Only RAID-1 and RAID-5 are built; Level(2) was RAID-6.
	for _, l := range []Level{-1, 2, 3} {
		if a, err := New(env, l, []blockdev.Device{d, d, d}, 0); err == nil {
			t.Errorf("New(%s) = array of size %d, want an error", l, a.Size())
		}
	}
}

func TestUnevenDevices(t *testing.T) {
	env := sim.NewEnv()
	d1 := blockdev.New(env, 1<<20, blockdev.SSDProfile())
	d2 := blockdev.New(env, 2<<20, blockdev.SSDProfile())
	d3 := blockdev.New(env, 1<<20, blockdev.SSDProfile())
	if _, err := New(env, RAID5, []blockdev.Device{d1, d2, d3}, 0); !errors.Is(err, ErrUnevenDevices) {
		t.Errorf("uneven devices: %v", err)
	}
}

// Property: RAID-5 round-trips arbitrary data at arbitrary aligned offsets,
// including after any single-device failure.
func TestPropertyRAID5RoundTripDegraded(t *testing.T) {
	f := func(seed byte, offSlots uint8, sizeK uint8, victim uint8) bool {
		env := sim.NewEnv()
		disks := make([]*blockdev.Disk, 5)
		devs := make([]blockdev.Device, 5)
		for i := range disks {
			disks[i] = blockdev.New(env, 256<<10, blockdev.SSDProfile())
			devs[i] = disks[i]
		}
		a, err := New(env, RAID5, devs, 4096)
		if err != nil {
			return false
		}
		off := int64(offSlots%100) * 777
		size := (int(sizeK)%60 + 1) * 1000
		if off+int64(size) > a.Size() {
			off = 0
		}
		data := patterned(size, seed)
		ok := true
		env.Go("t", func(p *sim.Proc) {
			if err := a.WriteAt(p, data, off); err != nil {
				ok = false
				return
			}
			disks[int(victim)%5].Fail()
			got := make([]byte, size)
			if err := a.ReadAt(p, got, off); err != nil {
				ok = false
				return
			}
			ok = bytes.Equal(got, data)
		})
		env.Run()
		return ok && !env.Deadlocked()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: overlapping writes obey last-writer-wins through parity updates.
func TestPropertyOverlappingWrites(t *testing.T) {
	f := func(seedA, seedB byte, shift uint8) bool {
		env := sim.NewEnv()
		disks := make([]blockdev.Device, 4)
		for i := range disks {
			disks[i] = blockdev.New(env, 128<<10, blockdev.SSDProfile())
		}
		a, _ := New(env, RAID5, disks, 4096)
		first := patterned(20000, seedA)
		second := patterned(8000, seedB)
		off2 := int64(shift%50) * 100
		ok := true
		env.Go("t", func(p *sim.Proc) {
			if a.WriteAt(p, first, 0) != nil {
				ok = false
				return
			}
			if a.WriteAt(p, second, off2) != nil {
				ok = false
				return
			}
			want := append([]byte(nil), first...)
			copy(want[off2:], second)
			got := make([]byte, len(first))
			if a.ReadAt(p, got, 0) != nil {
				ok = false
				return
			}
			ok = bytes.Equal(got, want)
		})
		env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelThroughputBeatsSingleDisk(t *testing.T) {
	// A large sequential read on RAID-5 of 7 HDDs should take much less
	// virtual time than the same read on one HDD (the paper's >1GB/s claim).
	const total = 64 << 20
	hddRead := func(nDisks int) (elapsed float64) {
		env := sim.NewEnv()
		disks := make([]blockdev.Device, nDisks)
		for i := range disks {
			disks[i] = blockdev.New(env, 1<<30, blockdev.HDDProfile())
		}
		var rd func(p *sim.Proc, b []byte, off int64) error
		if nDisks == 1 {
			d := disks[0]
			rd = d.ReadAt
		} else {
			a, _ := New(env, RAID5, disks, 256<<10)
			rd = a.ReadAt
		}
		env.Go("t", func(p *sim.Proc) {
			buf := make([]byte, 4<<20)
			for off := int64(0); off < total; off += int64(len(buf)) {
				if err := rd(p, buf, off); err != nil {
					t.Errorf("read: %v", err)
				}
			}
		})
		env.Run()
		return env.Now().Seconds()
	}
	single := hddRead(1)
	array := hddRead(7)
	if array*3 > single {
		t.Fatalf("RAID-5 of 7 disks not at least 3x faster: single=%.3fs array=%.3fs", single, array)
	}
}

// TestPartialWriteMemberTraffic pins, exactly, what a sub-stripe write moves on
// the members: the plan is whichever reads fewer of them (read-modify-write on
// a tie), and only the touched data ranges and the parity range are written.
func TestPartialWriteMemberTraffic(t *testing.T) {
	const su = 64 << 10
	type traffic struct{ ops, read, written int64 }
	type write struct {
		name     string
		off, len int // within a stripe of its own
		want     traffic
	}
	for _, tc := range []struct {
		level Level
		disks int
		cases []write
	}{
		{RAID5, 7, []write{
			{"4K: rmw, 2 reads + 2 writes", 8192, 4096, traffic{4, 2 * 4096, 2 * 4096}},
			{"one aligned chunk: rmw, 2 + 2", 2 * su, su, traffic{4, 2 * su, 2 * su}},
			{"8K across a chunk border: rmw, parity over the hull", su - 4096, 8192, traffic{6, 8192 + su, 8192 + su}},
			{"3 chunks: reconstruct, 3 + 4", su, 3 * su, traffic{7, 3 * su, 4 * su}},
			{"5 chunks: reconstruct, 1 + 6", 0, 5 * su, traffic{7, su, 6 * su}},
			{"5 chunks less 4K at each end: reconstruct, 3 + 6", 4096, 5*su - 8192, traffic{9, su + 8192, 6*su - 8192}},
			{"full stripe: 0 + 7", 0, 6 * su, traffic{7, 0, 7 * su}},
		}},
	} {
		t.Run(tc.level.String(), func(t *testing.T) {
			env := sim.NewEnv()
			t.Cleanup(env.Close)
			a, disks := newArray(t, env, tc.level, tc.disks, 8*su, su)
			stripeBytes := su * a.dataPerStripe()
			ref := patterned(int(a.Size()), 1)
			sum := func() (s traffic) {
				for _, d := range disks {
					s.ops += d.Ops
					s.read += d.BytesRead
					s.written += d.BytesWritten
				}
				return s
			}
			inSim(t, env, func(p *sim.Proc) {
				if err := a.WriteAt(p, ref, 0); err != nil {
					t.Fatalf("fill: %v", err)
				}
				for i, c := range tc.cases {
					// A stripe per case, so that the parity member rotates too.
					off := (i+1)*stripeBytes + c.off
					data := patterned(c.len, byte(100+i))
					before := sum()
					if err := a.WriteAt(p, data, int64(off)); err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					after := sum()
					got := traffic{after.ops - before.ops, after.read - before.read, after.written - before.written}
					if got != c.want {
						t.Errorf("%s: member traffic {ops read written} = %v, want %v", c.name, got, c.want)
					}
					copy(ref[off:], data)
				}
				got := make([]byte, len(ref))
				if err := a.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, ref) {
					t.Fatalf("content differs from the reference (err=%v)", err)
				}
				if res, err := a.Scrub(p); err != nil || len(res.Mismatches) != 0 {
					t.Fatalf("Scrub: err=%v, bad stripes %v", err, res.Mismatches)
				}
			})
		})
	}
}
