package pagecache

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ros/internal/blockdev"
	"ros/internal/chunk"
	"ros/internal/obs"
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
// cached write and its flush to the paper's 7-disk RAID-5: the flush is a
// partial stripe, which the array copies out of the cache into its reused
// stripe scratch and writes over member chunks it already owns, so per-op
// allocation is bookkeeping, not data.
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

// TestFlushFullStripesAllocBudget flushes whole stripes that the paper's
// 7-disk RAID-5 has never stored: the data members keep the cache's chunks by
// reference, and the parity member a recipe over them (chunk.XOR), so once
// the array's scratch lists are warm the flush allocates no chunk at all,
// only bookkeeping and each stripe's recipe terms. Staging the data and
// copying it into the members cost seven chunks per stripe and more; a
// parity chunk computed and written by copy cost one. Stripes of recipes (as
// an image parity slot holds) cost the same: the members keep the recipes,
// and the stripe parity is a recipe over their sources.
func TestFlushFullStripesAllocBudget(t *testing.T) {
	const (
		stripes = 16
		region  = stripes * 6 * chunkSize
	)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, region)
	rng.Read(data) // parity of equal columns would be zero, and not stored
	var srcs [2]chunk.Store
	for i := range srcs {
		b := make([]byte, region)
		rng.Read(b)
		srcs[i].WriteAt(b, 0)
	}
	for _, fill := range []struct {
		name  string
		write func(p *sim.Proc, v *Volume, off int64) error
	}{
		{"bytes", func(p *sim.Proc, v *Volume, off int64) error { return v.WriteAt(p, data, off) }},
		{"recipes", func(p *sim.Proc, v *Volume, off int64) error {
			return v.Adopt(p, off, chunk.XOR(nil, region, [][]chunk.Piece{srcs[0].Lend(nil, 0, region), srcs[1].Lend(nil, 0, region)}))
		}},
	} {
		env := sim.NewEnv()
		t.Cleanup(env.Close)
		devs := make([]blockdev.Device, 7)
		for i := range devs {
			devs[i] = blockdev.New(env, 16<<20, blockdev.HDDProfile())
		}
		arr, err := raid.New(env, raid.RAID5, devs, chunkSize)
		if err != nil {
			t.Fatal(err)
		}
		v := New(env, arr, Ext4Rates())
		var before, after runtime.MemStats
		env.Go("t", func(p *sim.Proc) {
			for i, off := range []int64{0, region} { // the first flush warms the scratch lists
				if err := fill.write(p, v, off); err != nil {
					t.Errorf("%s: %v", fill.name, err)
				}
				if i == 1 {
					runtime.ReadMemStats(&before)
				}
				v.Sync(p)
			}
			runtime.ReadMemStats(&after)
			want, got := make([]byte, 2*region), make([]byte, 2*region)
			v.store.ReadAt(want, 0)
			if err := arr.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: the array does not read what the cache holds (err %v)", fill.name, err)
			}
			if res, err := arr.Scrub(p); err != nil || len(res.Mismatches) > 0 {
				t.Errorf("%s: the array's parity is wrong in stripes %v (err %v)", fill.name, res.Mismatches, err)
			}
		})
		env.Run()
		got, budget := after.TotalAlloc-before.TotalAlloc, uint64(stripes*8<<10)
		if got > budget {
			t.Errorf("flushing %d fresh full stripes of %s allocated %d B, budget is %d (8 KB a stripe)", stripes, fill.name, got, budget)
		} else {
			t.Logf("flushing %d fresh full stripes of %s: %d B", stripes, fill.name, got)
		}
	}
}

// TestWriteBackWaitsForTheInterval: a little dirty data stays in the cache for
// one write-back interval and is on the backend right after, and Env.Run does
// not return before that (the interval is a strong sleep).
func TestWriteBackWaitsForTheInterval(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	disk := blockdev.New(env, 1<<24, blockdev.SSDProfile())
	v := New(env, disk, Ext4Rates())
	var wrote time.Duration
	env.Go("t", func(p *sim.Proc) {
		if err := v.WriteAt(p, bytes.Repeat([]byte{7}, 4096), 3*chunkSize); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
		wrote = p.Now()
		// A second chunk, dirtied later, goes with the first: a drain takes
		// everything dirty.
		p.Sleep(time.Second)
		if err := v.WriteAt(p, bytes.Repeat([]byte{8}, 4096), 9*chunkSize); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
		p.Sleep(wrote + writebackInterval - time.Millisecond - p.Now())
		if disk.Ops != 0 || v.DirtyChunks() != 2 {
			t.Errorf("before the interval: %d backend ops, %d dirty chunks, want 0 and 2", disk.Ops, v.DirtyChunks())
		}
		p.Sleep(100 * time.Millisecond)
		if disk.BytesWritten != 2*pageSize || v.DirtyChunks() != 0 {
			t.Errorf("after the interval: %d bytes on the backend, %d dirty chunks, want %d and 0",
				disk.BytesWritten, v.DirtyChunks(), 2*pageSize)
		}
		// Nothing is dirty now, so the next write waits a whole interval again.
		if err := v.WriteAt(p, bytes.Repeat([]byte{9}, 4096), 0); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
		wrote = p.Now()
	})
	env.Run()
	if v.DirtyChunks() != 0 || disk.BytesWritten != 3*pageSize {
		t.Errorf("Env.Run returned with %d dirty chunks and %d bytes on the backend", v.DirtyChunks(), disk.BytesWritten)
	}
	if env.Now() < wrote+writebackInterval {
		t.Errorf("Env.Run returned at %v, before the last write (%v) was one interval old", env.Now(), wrote)
	}
}

// TestWriteBackStartsAtOneSegment: one flush segment of dirty data starts
// write-back at once; a chunk less does not.
func TestWriteBackStartsAtOneSegment(t *testing.T) {
	for _, tc := range []struct {
		bytes  int
		starts bool
	}{{flushSegment - chunkSize, false}, {flushSegment, true}} {
		env := sim.NewEnv()
		disk := blockdev.New(env, 1<<30, blockdev.HDDProfile())
		v := New(env, disk, Ext4Rates())
		env.Go("t", func(p *sim.Proc) {
			buf := bytes.Repeat([]byte{1}, 1<<20)
			for off := 0; off < tc.bytes; off += len(buf) {
				if err := v.WriteAt(p, buf[:min(len(buf), tc.bytes-off)], int64(off)); err != nil {
					t.Errorf("WriteAt: %v", err)
				}
			}
			p.Sleep(time.Millisecond)
			if started := disk.Ops > 0 || v.DirtyChunks() == 0; started != tc.starts {
				t.Errorf("%d bytes dirty: write-back started = %v, want %v", tc.bytes, started, tc.starts)
			}
		})
		env.Run()
		if v.DirtyChunks() != 0 || disk.BytesWritten != int64(tc.bytes) {
			t.Errorf("%d bytes dirty: Env.Run returned with %d dirty chunks, %d bytes on the backend",
				tc.bytes, v.DirtyChunks(), disk.BytesWritten)
		}
		env.Close()
	}
}

// TestSyncStartsWriteBack: Sync on a quiet cache returns at once, and on a
// dirty one starts write-back instead of waiting for the timer.
func TestSyncStartsWriteBack(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	disk := blockdev.New(env, 1<<24, blockdev.HDDProfile())
	v := New(env, disk, Ext4Rates())
	env.Go("t", func(p *sim.Proc) {
		start := p.Now()
		v.Sync(p)
		if p.Now() != start {
			t.Errorf("Sync on a quiet cache took %v", p.Now()-start)
		}
		if err := v.WriteAt(p, bytes.Repeat([]byte{3}, 4096), 0); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
		start = p.Now()
		v.Sync(p)
		if took := p.Now() - start; took > 100*time.Millisecond {
			t.Errorf("Sync on a dirty cache took %v: it waited for the timer", took)
		}
		if disk.BytesWritten != pageSize || v.DirtyChunks() != 0 {
			t.Errorf("after Sync: %d bytes on the backend, %d dirty chunks, want %d and 0",
				disk.BytesWritten, v.DirtyChunks(), pageSize)
		}
		start = p.Now()
		v.Sync(p)
		if p.Now() != start {
			t.Errorf("second Sync took %v", p.Now()-start)
		}
	})
	env.Run()
}

// recordingBackend notes the extent of every backend write.
type recordingBackend struct {
	Backend
	writes [][2]int64 // off, len
}

func (r *recordingBackend) WriteFrom(p *sim.Proc, s *chunk.Store, off, n int64) error {
	r.writes = append(r.writes, [2]int64{off, n})
	return r.Backend.WriteFrom(p, s, off, n)
}

// TestWriteBackMovesDirtyPages: write-back moves the page-aligned hull of
// what was written into each chunk, not the whole chunk, and dirty bytes that
// run on across a chunk boundary go to the backend as one write.
func TestWriteBackMovesDirtyPages(t *testing.T) {
	for _, tc := range []struct {
		name   string
		writes [][2]int64 // off, len
		want   [][2]int64 // backend writes: off, len
	}{
		{"one page", [][2]int64{{5 * chunkSize, pageSize}}, [][2]int64{{5 * chunkSize, pageSize}}},
		{"sub-page write", [][2]int64{{pageSize + 100, 2000}}, [][2]int64{{pageSize, pageSize}}},
		{"pages 0 and 15 of a chunk", [][2]int64{{chunkSize, pageSize}, {chunkSize + 15*pageSize, 100}},
			[][2]int64{{chunkSize, chunkSize}}},
		{"pages 2 and 5 of a chunk", [][2]int64{{chunkSize + 5*pageSize, 10}, {chunkSize + 2*pageSize, 10}},
			[][2]int64{{chunkSize + 2*pageSize, 4 * pageSize}}},
		{"across a chunk boundary", [][2]int64{{2*chunkSize - 3000, 6000}},
			[][2]int64{{2*chunkSize - pageSize, 2 * pageSize}}},
		{"two chunks, not contiguous", [][2]int64{{pageSize, pageSize}, {chunkSize, pageSize}},
			[][2]int64{{pageSize, pageSize}, {chunkSize, pageSize}}},
	} {
		env := sim.NewEnv()
		disk := blockdev.New(env, 1<<24, blockdev.SSDProfile())
		rec := &recordingBackend{Backend: disk}
		v := New(env, rec, Ext4Rates())
		reg := obs.New(env)
		v.AttachObs(reg, "buffer")
		env.Go("t", func(p *sim.Proc) {
			for _, w := range tc.writes {
				if err := v.WriteAt(p, bytes.Repeat([]byte{5}, int(w[1])), w[0]); err != nil {
					t.Errorf("%s: WriteAt: %v", tc.name, err)
				}
			}
			v.Sync(p)
		})
		env.Run()
		if !slices.Equal(rec.writes, tc.want) {
			t.Errorf("%s: backend writes %v, want %v", tc.name, rec.writes, tc.want)
		}
		var want int64
		for _, w := range tc.want {
			want += w[1]
		}
		if got := reg.Counter("buffer.bytes_flushed").Value(); got != want || disk.BytesWritten != want {
			t.Errorf("%s: flushed %d bytes, backend wrote %d, want %d", tc.name, got, disk.BytesWritten, want)
		}
		env.Close()
	}
}

// TestSequentialFillReachesArrayAsFullStripes fills a region the way a bucket
// is filled, 8 KB at a time: write-back must hand the 7-disk RAID-5 whole
// stripes, each byte once, so that the members are never read.
func TestSequentialFillReachesArrayAsFullStripes(t *testing.T) {
	const (
		fill        = 3 << 20
		stripeBytes = 6 * 64 << 10
	)
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	disks := make([]*blockdev.Disk, 7)
	devs := make([]blockdev.Device, 7)
	for i := range devs {
		disks[i] = blockdev.New(env, 16<<20, blockdev.HDDProfile())
		devs[i] = disks[i]
	}
	arr, err := raid.New(env, raid.RAID5, devs, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingBackend{Backend: arr}
	v := New(env, rec, Ext4Rates())
	reg := obs.New(env)
	v.AttachObs(reg, "buffer")
	env.Go("t", func(p *sim.Proc) {
		buf := bytes.Repeat([]byte{0xB7}, 8<<10)
		for off := int64(0); off < fill; off += int64(len(buf)) {
			if err := v.WriteAt(p, buf, off); err != nil {
				t.Errorf("WriteAt: %v", err)
			}
		}
	})
	env.Run()
	if v.DirtyChunks() != 0 {
		t.Fatalf("Env.Run returned with %d dirty chunks", v.DirtyChunks())
	}
	fullStripes := int64(0)
	for _, w := range rec.writes {
		first := (w[0] + stripeBytes - 1) / stripeBytes
		if end := (w[0] + w[1]) / stripeBytes; end > first {
			fullStripes += end - first
		}
	}
	if fullStripes < 7 {
		t.Errorf("%d full-stripe writes reached the array (backend writes %v), want >= 7", fullStripes, rec.writes)
	}
	if flushed, limit := reg.Counter("buffer.bytes_flushed").Value(), int64(fill*11/10); flushed > limit {
		t.Errorf("flushed %d bytes for %d written, want <= %d", flushed, fill, limit)
	}
	var read, written int64
	for _, d := range disks {
		read += d.BytesRead
		written += d.BytesWritten
	}
	if read != 0 || written != fill*7/6 {
		t.Errorf("members read %d and wrote %d bytes, want 0 and %d", read, written, fill*7/6)
	}
}

// TestLostUpdateWriteDuringFlush: a write that lands on a chunk while the
// flusher is writing that chunk's earlier content must reach the backend too.
// (The flusher used to clear the dirty mark after the backend write returned,
// so the second write was forgotten and Sync returned as if it had been
// flushed.)
func TestLostUpdateWriteDuringFlush(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	disk := blockdev.New(env, 1<<24, blockdev.HDDProfile())
	v := New(env, disk, Ext4Rates())
	env.Go("t", func(p *sim.Proc) {
		if err := v.WriteAt(p, bytes.Repeat([]byte{0x11}, 4096), 0); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
		env.Go("sync", v.Sync) // starts write-back of the chunk
		p.Sleep(time.Millisecond)
		if disk.Ops != 0 || disk.Profile().SeekTime < 2*time.Millisecond {
			t.Fatalf("the flusher is not inside its backend write (ops=%d)", disk.Ops)
		}
		if err := v.WriteAt(p, bytes.Repeat([]byte{0x22}, 4096), 4096); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
		v.Sync(p)
		got := make([]byte, 8192)
		if err := disk.ReadAt(p, got, 0); err != nil {
			t.Fatalf("backend ReadAt: %v", err)
		}
		want := append(bytes.Repeat([]byte{0x11}, 4096), bytes.Repeat([]byte{0x22}, 4096)...)
		if !bytes.Equal(got, want) {
			t.Errorf("after Sync the backend holds %x.. %x.., want 11.. 22..", got[0], got[4096])
		}
	})
	env.Run()
	if env.Deadlocked() {
		t.Fatal("deadlocked")
	}
}

// TestPropertySyncLeavesBackendEqualToCache drives random writes, pauses and
// Syncs, with a second process that starts write-back at random moments so
// that writes land while the flusher is busy: after every Sync the array, read
// through Backend(), holds exactly what the cache holds.
func TestPropertySyncLeavesBackendEqualToCache(t *testing.T) {
	const size = 16 * chunkSize
	for seed := int64(1); seed <= 8; seed++ {
		env := sim.NewEnv()
		devs := make([]blockdev.Device, 5)
		for i := range devs {
			devs[i] = blockdev.New(env, 256<<10, blockdev.HDDProfile())
		}
		arr, err := raid.New(env, raid.RAID5, devs, 16<<10)
		if err != nil {
			t.Fatal(err)
		}
		v := New(env, arr, Ext4Rates())
		done := false
		env.Go("kicker", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed + 1000))
			for !done {
				p.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond)
				v.Sync(p)
			}
		})
		env.Go("writer", func(p *sim.Proc) {
			defer func() { done = true }()
			rng := rand.New(rand.NewSource(seed))
			cache, array := make([]byte, size), make([]byte, size)
			for i := 0; i < 200; i++ {
				switch r := rng.Intn(10); {
				case r < 6:
					n := 1 + rng.Intn(2*chunkSize)
					off := rng.Intn(size - n + 1)
					buf := make([]byte, n)
					rng.Read(buf)
					if err := v.WriteAt(p, buf, int64(off)); err != nil {
						t.Errorf("seed %d: WriteAt: %v", seed, err)
					}
				case r < 8:
					p.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
				case r < 9:
					p.Sleep(writebackInterval + time.Duration(rng.Intn(20))*time.Millisecond)
				default:
					v.Sync(p)
					if err := v.ReadAt(p, cache, 0); err != nil {
						t.Errorf("seed %d: cache ReadAt: %v", seed, err)
					}
					if err := v.Backend().ReadAt(p, array, 0); err != nil {
						t.Errorf("seed %d: backend ReadAt: %v", seed, err)
					}
					if !bytes.Equal(cache, array) {
						t.Errorf("seed %d, op %d: after Sync the backend differs from the cache", seed, i)
						return
					}
				}
			}
		})
		env.Run()
		if env.Deadlocked() {
			t.Fatalf("seed %d: deadlocked", seed)
		}
		if v.DirtyChunks() != 0 {
			t.Errorf("seed %d: Env.Run returned with %d dirty chunks", seed, v.DirtyChunks())
		}
		env.Close()
	}
}
