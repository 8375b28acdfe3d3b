package pagecache

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ros/internal/blockdev"
	"ros/internal/raid"
	"ros/internal/sim"
)

func TestCachedWriteFasterThanBackend(t *testing.T) {
	env := sim.NewEnv()
	disk := blockdev.New(env, 1<<30, blockdev.HDDProfile()) // 150 MB/s
	v := New(env, disk, Ext4Rates())                        // 1.0 GB/s write
	var writeDone time.Duration
	env.Go("writer", func(p *sim.Proc) {
		buf := make([]byte, 1<<20)
		for off := int64(0); off < 100<<20; off += int64(len(buf)) {
			if err := v.WriteAt(p, buf, off); err != nil {
				t.Errorf("WriteAt: %v", err)
			}
		}
		writeDone = p.Now()
		v.Sync(p)
	})
	env.Run()
	// 100 MB at 1 GB/s: ~0.1s foreground.
	if writeDone > 200*time.Millisecond {
		t.Errorf("foreground writes took %v, want ~0.1s", writeDone)
	}
	// Flush to a 150 MB/s disk takes ~0.67s total.
	if env.Now() < 500*time.Millisecond {
		t.Errorf("sync returned at %v — flusher did not charge backend time", env.Now())
	}
	if disk.BytesWritten < 100<<20 {
		t.Errorf("backend received %d bytes", disk.BytesWritten)
	}
}

func TestReadBackWhatWasWritten(t *testing.T) {
	env := sim.NewEnv()
	disk := blockdev.New(env, 1<<24, blockdev.SSDProfile())
	v := New(env, disk, Ext4Rates())
	env.Go("t", func(p *sim.Proc) {
		data := []byte("cached bytes survive round trips")
		if err := v.WriteAt(p, data, 777); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
		got := make([]byte, len(data))
		if err := v.ReadAt(p, got, 777); err != nil {
			t.Errorf("ReadAt: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("got %q", got)
		}
	})
	env.Run()
	if env.Deadlocked() {
		t.Fatal("deadlocked (daemon accounting broken?)")
	}
}

func TestBackendHoldsDataAfterSync(t *testing.T) {
	env := sim.NewEnv()
	disk := blockdev.New(env, 1<<24, blockdev.SSDProfile())
	v := New(env, disk, Ext4Rates())
	env.Go("t", func(p *sim.Proc) {
		data := bytes.Repeat([]byte{0xAD}, 200000)
		if err := v.WriteAt(p, data, 4096); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
		v.Sync(p)
		// Read directly from the backend, bypassing the cache ("after crash").
		got := make([]byte, len(data))
		if err := disk.ReadAt(p, got, 4096); err != nil {
			t.Errorf("backend ReadAt: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("backend missing flushed data")
		}
	})
	env.Run()
}

func TestDirtyTracking(t *testing.T) {
	env := sim.NewEnv()
	disk := blockdev.New(env, 1<<24, blockdev.SSDProfile())
	v := New(env, disk, Ext4Rates())
	env.Go("t", func(p *sim.Proc) {
		if err := v.WriteAt(p, make([]byte, 300000), 0); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
		v.Sync(p)
		if v.DirtyChunks() != 0 {
			t.Errorf("%d dirty chunks after sync", v.DirtyChunks())
		}
	})
	env.Run()
}

func TestOutOfRange(t *testing.T) {
	env := sim.NewEnv()
	disk := blockdev.New(env, 1024, blockdev.SSDProfile())
	v := New(env, disk, Ext4Rates())
	env.Go("t", func(p *sim.Proc) {
		err := v.WriteAt(p, make([]byte, 10), 1020)
		if err == nil {
			t.Fatal("write past end succeeded")
		}
		// The error must say which access it was, as raid's and blockdev's do.
		if want := "off=1020 len=10 size=1024"; !strings.Contains(err.Error(), want) {
			t.Errorf("range error %q does not carry %q", err, want)
		}
		if err := v.ReadAt(p, make([]byte, 10), -1); err == nil {
			t.Error("negative read succeeded")
		}
	})
	env.Run()
}

func TestFlusherInterferesWithForegroundArrayUse(t *testing.T) {
	// The §4.7 stream-interference scenario: while the flusher is pushing
	// dirty data, a direct reader of the same disk sees reduced bandwidth.
	env := sim.NewEnv()
	disk := blockdev.New(env, 1<<30, blockdev.HDDProfile())
	v := New(env, disk, Ext4Rates())
	var soloRead, contendedRead time.Duration
	env.Go("t", func(p *sim.Proc) {
		// Solo read baseline.
		buf := make([]byte, 8<<20)
		start := p.Now()
		if err := disk.ReadAt(p, buf, 512<<20); err != nil {
			t.Errorf("solo read: %v", err)
		}
		soloRead = p.Now() - start
		// Dirty a lot of cache, give the flusher a tick to grab the disk,
		// then read while the flush is in flight.
		if err := v.WriteAt(p, make([]byte, 64<<20), 0); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
		p.Sleep(time.Millisecond)
		start = p.Now()
		if err := disk.ReadAt(p, buf, 600<<20); err != nil {
			t.Errorf("contended read: %v", err)
		}
		contendedRead = p.Now() - start
		v.Sync(p)
	})
	env.Run()
	if contendedRead <= soloRead {
		t.Errorf("no interference: solo %v vs contended %v", soloRead, contendedRead)
	}
}

// TestWriteFlushAllocBudget holds the steady-state host cost of a 64 KB
// cached write and its flush to the paper's 7-disk RAID-5: the flusher stages
// every backend write in the one buffer it owns and the array reuses its
// stripe scratch, so per-op allocation is bookkeeping, not data.
func TestWriteFlushAllocBudget(t *testing.T) {
	const span = 32 * chunkSize
	res := testing.Benchmark(func(b *testing.B) {
		env := sim.NewEnv()
		devs := make([]blockdev.Device, 7)
		for i := range devs {
			devs[i] = blockdev.New(env, 16<<20, blockdev.HDDProfile())
		}
		arr, err := raid.New(env, raid.RAID5, devs, 64<<10)
		if err != nil {
			b.Fatal(err)
		}
		v := New(env, arr, Ext4Rates())
		buf := bytes.Repeat([]byte{0x5A}, chunkSize)
		env.Go("writer", func(p *sim.Proc) {
			write := func(i int) {
				if err := v.WriteAt(p, buf, int64(i)*chunkSize%span); err != nil {
					b.Error(err)
				}
				v.Sync(p)
			}
			for i := 0; i < span/chunkSize; i++ { // materialize cache and disk chunks
				write(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				write(i)
			}
		})
		env.Run()
	})
	if got := res.AllocedBytesPerOp(); got > 16<<10 {
		t.Errorf("64 KB cached write + flush allocates %d B/op, budget is %d", got, 16<<10)
	} else {
		t.Logf("64 KB cached write + flush: %d B/op, %d allocs/op", got, res.AllocsPerOp())
	}
}
