package blockdev

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"ros/internal/chunk"
	"ros/internal/sim"
)

func run(t *testing.T, fn func(p *sim.Proc)) *sim.Env {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	env.Go("test", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatal("simulation deadlocked")
	}
	return env
}

func TestWriteReadRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, 1<<30, HDDProfile())
	run2 := func(fn func(p *sim.Proc)) {
		env.Go("t", fn)
		env.Run()
	}
	data := []byte("hello optical world")
	run2(func(p *sim.Proc) {
		if err := d.WriteAt(p, data, 12345); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
		got := make([]byte, len(data))
		if err := d.ReadAt(p, got, 12345); err != nil {
			t.Errorf("ReadAt: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("got %q, want %q", got, data)
		}
	})
}

func TestUnwrittenReadsZero(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, 1<<20, SSDProfile())
	run(t, func(p *sim.Proc) {
		buf := make([]byte, 100)
		buf[0] = 0xFF
		if err := d.ReadAt(p, buf, 500); err != nil {
			t.Errorf("ReadAt: %v", err)
		}
		for i, b := range buf {
			if b != 0 {
				t.Fatalf("byte %d = %x, want 0", i, b)
			}
		}
	})
	_ = env
}

func TestOutOfRange(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, 1000, SSDProfile())
	env.Go("t", func(p *sim.Proc) {
		if err := d.WriteAt(p, make([]byte, 10), 995); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("WriteAt past end: %v, want ErrOutOfRange", err)
		}
		if err := d.ReadAt(p, make([]byte, 10), -1); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("ReadAt negative: %v, want ErrOutOfRange", err)
		}
	})
	env.Run()
}

func TestSequentialThroughputModel(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, 1<<32, HDDProfile())
	const total = 150 << 20 // 150 MB at 150 MB/s ~ 1 s
	env.Go("t", func(p *sim.Proc) {
		buf := make([]byte, 1<<20)
		var off int64
		for off = 0; off < total; off += int64(len(buf)) {
			if err := d.WriteAt(p, buf, off); err != nil {
				t.Errorf("WriteAt: %v", err)
			}
		}
	})
	env.Run()
	elapsed := env.Now()
	// One seek plus ~1.05s transfer (150MB/150MB/s) plus per-op overheads.
	if elapsed < 900*time.Millisecond || elapsed > 1300*time.Millisecond {
		t.Fatalf("elapsed = %v, want ~1.05s", elapsed)
	}
}

func TestRandomAccessPaysSeeks(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, 1<<30, HDDProfile())
	env.Go("t", func(p *sim.Proc) {
		buf := make([]byte, 4096)
		for i := 0; i < 100; i++ {
			off := int64(i) * 10 << 20 // scattered
			if err := d.ReadAt(p, buf, off); err != nil {
				t.Errorf("ReadAt: %v", err)
			}
		}
	})
	env.Run()
	// 100 seeks at 8ms = 800ms dominates.
	if env.Now() < 800*time.Millisecond {
		t.Fatalf("elapsed = %v, want >= 800ms of seek time", env.Now())
	}
}

func TestDeviceFailure(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, 1<<20, HDDProfile())
	env.Go("t", func(p *sim.Proc) {
		d.Fail()
		if err := d.ReadAt(p, make([]byte, 10), 0); !errors.Is(err, ErrFailed) {
			t.Errorf("read on failed device: %v", err)
		}
		if err := d.WriteAt(p, make([]byte, 10), 0); !errors.Is(err, ErrFailed) {
			t.Errorf("write on failed device: %v", err)
		}
		d.Repair()
		if err := d.WriteAt(p, []byte("ok"), 0); err != nil {
			t.Errorf("write after repair: %v", err)
		}
	})
	env.Run()
}

func TestBadSector(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, 1<<20, HDDProfile())
	env.Go("t", func(p *sim.Proc) {
		if err := d.WriteAt(p, []byte("data"), 8192); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
		d.CorruptSector(8192)
		err := d.ReadAt(p, make([]byte, 4), 8192)
		if !errors.Is(err, ErrBadSector) {
			t.Errorf("read of corrupt sector: %v, want ErrBadSector", err)
		}
		// Writes still succeed (drive remaps on write), and healing restores reads.
		d.HealSector(8192)
		if err := d.ReadAt(p, make([]byte, 4), 8192); err != nil {
			t.Errorf("read after heal: %v", err)
		}
	})
	env.Run()
}

func TestQueueDepthSerializes(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, 1<<30, HDDProfile()) // one FIFO server
	const n = 4
	for i := 0; i < n; i++ {
		i := i
		env.Go("reader", func(p *sim.Proc) {
			buf := make([]byte, 15<<20) // 15MB = 100ms at 150MB/s
			if err := d.ReadAt(p, buf, int64(i)*(20<<20)); err != nil {
				t.Errorf("ReadAt: %v", err)
			}
		})
	}
	env.Run()
	// Four serialized 100ms transfers + seeks: at least 400ms.
	if env.Now() < 400*time.Millisecond {
		t.Fatalf("elapsed = %v, want >= 400ms (serialized)", env.Now())
	}
}

func TestSparseAllocation(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, 4<<40, HDDProfile()) // 4 TB
	env.Go("t", func(p *sim.Proc) {
		if err := d.WriteAt(p, []byte("x"), 3<<40); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
	})
	env.Run()
	if d.AllocatedBytes() > 1<<20 {
		t.Fatalf("allocated %d bytes for a single-byte write", d.AllocatedBytes())
	}
}

func TestStatsCounters(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, 1<<20, SSDProfile())
	env.Go("t", func(p *sim.Proc) {
		_ = d.WriteAt(p, make([]byte, 1000), 0)
		_ = d.ReadAt(p, make([]byte, 400), 0)
	})
	env.Run()
	if d.BytesWritten != 1000 || d.BytesRead != 400 || d.Ops != 2 {
		t.Fatalf("stats: wrote=%d read=%d ops=%d", d.BytesWritten, d.BytesRead, d.Ops)
	}
}

// TestPropertyRoundTrip: three processes write and read overlapping ranges
// of one disk concurrently, and every read returns exactly what a shadow copy
// of the disk holds when the read arrives. A disk serves accesses in arrival
// order and moves their bytes then, so a read sees every write that arrived
// before it, queued or not, and none that arrived after.
func TestPropertyRoundTrip(t *testing.T) {
	const procs, ops, window = 3, 60, 96 << 10
	reads, queued := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		env := sim.NewEnv()
		d := New(env, 1<<20, SSDProfile())
		shadow := make([]byte, window)
		for i := 0; i < procs; i++ {
			env.Go("rw", func(p *sim.Proc) {
				rng := rand.New(rand.NewSource(seed*procs + int64(i)))
				for j := 0; j < ops; j++ {
					p.Sleep(time.Duration(rng.Intn(60)) * time.Microsecond)
					n := 1 + rng.Intn(16<<10)
					off := int64(rng.Intn(window - n))
					buf := make([]byte, n)
					arrived, alone := p.Now(), d.busyUntil <= p.Now()
					if rng.Intn(2) == 0 {
						rng.Read(buf)
						copy(shadow[off:], buf) // the write arrives now
						if err := d.WriteAt(p, buf, off); err != nil {
							t.Errorf("seed %d: WriteAt: %v", seed, err)
						}
						continue
					}
					want := append([]byte(nil), shadow[off:off+int64(n)]...)
					if err := d.ReadAt(p, buf, off); err != nil {
						t.Errorf("seed %d: ReadAt: %v", seed, err)
					}
					if !bytes.Equal(buf, want) {
						t.Fatalf("seed %d: process %d read [%d, %d) at %v: not what had arrived before it", seed, i, off, off+int64(n), arrived)
					}
					reads++
					if !alone {
						queued++
					}
				}
			})
		}
		env.Run()
		env.Close()
	}
	t.Logf("%d reads, %d of them queued behind another access", reads, queued)
	if queued < reads/4 {
		t.Errorf("only %d of %d reads waited behind another access", queued, reads)
	}
}

func TestChunkBoundarySpanningWrite(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, 1<<20, SSDProfile())
	env.Go("t", func(p *sim.Proc) {
		data := make([]byte, 3*chunk.Size)
		for i := range data {
			data[i] = byte(i % 251)
		}
		off := int64(chunk.Size - 100) // spans 4 chunks
		if err := d.WriteAt(p, data, off); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
		got := make([]byte, len(data))
		if err := d.ReadAt(p, got, off); err != nil {
			t.Errorf("ReadAt: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("chunk-spanning round trip mismatch")
		}
	})
	env.Run()
}
