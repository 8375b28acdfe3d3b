package ros

// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), one per artifact, plus ablation and substrate micro-benchmarks.
//
// Each experiment runs the full simulation and reports the headline virtual
// metrics (paper_* = the published value, meas_* = this reproduction) via
// b.ReportMetric; ns/op is the host cost of simulating the experiment.
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"ros/internal/blockdev"
	"ros/internal/experiments"
	"ros/internal/obs"
	"ros/internal/optical"
	"ros/internal/pagecache"
	"ros/internal/raid"
	"ros/internal/sim"
	"ros/internal/udf"
)

// benchExperiment runs fn b.N times and publishes selected metrics.
func benchExperiment(b *testing.B, fn func() (experiments.Result, error), metrics ...string) {
	b.Helper()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, name := range metrics {
		for _, m := range last.Metrics {
			if m.Name == name {
				b.ReportMetric(m.Measured, "meas_"+metricUnitTag(name, m.Unit))
				b.ReportMetric(m.Paper, "paper_"+metricUnitTag(name, m.Unit))
			}
		}
	}
}

// metricUnitTag builds a compact metric tag.
func metricUnitTag(name, unit string) string {
	tag := ""
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			tag += string(r)
		case r == ' ' || r == ',' || r == '(' || r == ')':
			// skip
		}
		if len(tag) >= 24 {
			break
		}
	}
	return tag
}

// --- Table benches ---

// BenchmarkTable1ReadLocations regenerates Table 1 (read latency ladder).
func BenchmarkTable1ReadLocations(b *testing.B) {
	benchExperiment(b, experiments.Table1,
		"disk bucket", "disc in optical drive", "array in roller, free drives",
		"array in roller, drives idle (swap)")
}

// BenchmarkTable2DriveRead regenerates Table 2 (drive read speeds).
func BenchmarkTable2DriveRead(b *testing.B) {
	benchExperiment(b, experiments.Table2,
		"25GB single-drive read", "25GB 12-drive aggregate read",
		"100GB single-drive read", "100GB 12-drive aggregate read")
}

// BenchmarkTable3Mechanical regenerates Table 3 (load/unload latency).
func BenchmarkTable3Mechanical(b *testing.B) {
	benchExperiment(b, experiments.Table3,
		"load, uppermost layer", "unload, uppermost layer",
		"load, lowest layer", "unload, lowest layer")
}

// --- Figure benches ---

// BenchmarkFig6Throughput regenerates Fig 6 (five-stack normalized
// throughput). The slowest experiment (~10 s host per run).
func BenchmarkFig6Throughput(b *testing.B) {
	benchExperiment(b, experiments.Fig6,
		"samba+OLFS read absolute", "samba+OLFS write absolute")
}

// BenchmarkFig7OpBreakdown regenerates Fig 7 (internal op latencies).
func BenchmarkFig7OpBreakdown(b *testing.B) {
	benchExperiment(b, experiments.Fig7,
		"OLFS 1KB write latency", "OLFS 1KB read latency",
		"samba+OLFS 1KB write latency", "samba+OLFS 1KB read latency")
}

// BenchmarkFig8Burn25Single regenerates Fig 8 (25GB burn curve).
func BenchmarkFig8Burn25Single(b *testing.B) {
	benchExperiment(b, experiments.Fig8,
		"total recording time", "average recording speed")
}

// BenchmarkFig9Burn25Array regenerates Fig 9 (12-drive aggregate burn).
func BenchmarkFig9Burn25Array(b *testing.B) {
	benchExperiment(b, experiments.Fig9,
		"array recording time", "average aggregate throughput", "peak aggregate throughput")
}

// BenchmarkFig10Burn100 regenerates Fig 10 (100GB burn curve).
func BenchmarkFig10Burn100(b *testing.B) {
	benchExperiment(b, experiments.Fig10,
		"total recording time", "average recording speed")
}

// --- In-text experiment benches ---

// BenchmarkMVSize regenerates the §4.2 metadata sizing numbers.
func BenchmarkMVSize(b *testing.B) {
	benchExperiment(b, experiments.MVSize, "MV for 1B files + 1B dirs")
}

// BenchmarkMVRecovery regenerates the §4.2 recover-MV-from-discs run.
func BenchmarkMVRecovery(b *testing.B) {
	benchExperiment(b, experiments.MVRecovery, "recovery time extrapolated to 120 discs")
}

// BenchmarkTCO regenerates the §2.1 cost model.
func BenchmarkTCO(b *testing.B) {
	benchExperiment(b, experiments.TCO, "optical TCO", "HDD/optical ratio", "tape/optical ratio")
}

// BenchmarkPower regenerates the §5.1 power envelope.
func BenchmarkPower(b *testing.B) {
	benchExperiment(b, experiments.Power, "idle power", "peak power")
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationNoBuffer: tiered buffer vs synchronous burn.
func BenchmarkAblationNoBuffer(b *testing.B) {
	benchExperiment(b, experiments.AblationTieredBuffer,
		"buffered write ack", "synchronous-burn write ack")
}

// BenchmarkAblationFuseChunk: big_writes vs 4KB flushes.
func BenchmarkAblationFuseChunk(b *testing.B) {
	benchExperiment(b, experiments.AblationFuseChunk, "big_writes speedup")
}

// BenchmarkAblationParity is the delayed-parity path: parity generation cost
// per image set, measured inside the read-policy/burn pipeline ablation.
func BenchmarkAblationReadPolicy(b *testing.B) {
	benchExperiment(b, experiments.AblationReadPolicy,
		"read latency, wait policy", "read latency, interrupt policy")
}

// BenchmarkAblationForepart: first-byte latency with/without forepart.
func BenchmarkAblationForepart(b *testing.B) {
	benchExperiment(b, experiments.AblationForepart,
		"first byte with forepart", "first byte without forepart")
}

// BenchmarkAblationReadCache: RC hit vs mechanical re-fetch.
func BenchmarkAblationReadCache(b *testing.B) {
	benchExperiment(b, experiments.AblationReadCache,
		"re-read with RC (buffer hit)", "re-read without RC (mechanical fetch)")
}

// BenchmarkAblationUniquePath: image-space cost of redundant directories.
func BenchmarkAblationUniquePath(b *testing.B) {
	benchExperiment(b, experiments.AblationUniquePath, "directory redundancy overhead")
}

// BenchmarkAblationOverlap: serial vs overlapped mechanical scheduling.
func BenchmarkAblationOverlap(b *testing.B) {
	benchExperiment(b, experiments.AblationOverlapScheduling, "saving")
}

// BenchmarkAblationStreams: shared vs isolated RAID volumes under
// concurrent streams.
func BenchmarkAblationStreams(b *testing.B) {
	benchExperiment(b, experiments.AblationStreamIsolation, "interference slowdown")
}

// BenchmarkAblationDirectWrite: §4.8 direct-writing mode vs the NAS stack.
func BenchmarkAblationDirectWrite(b *testing.B) {
	benchExperiment(b, experiments.AblationDirectWrite, "direct-writing ingest throughput")
}

// BenchmarkAblationScheduler: fifo vs qos-scan mechanical scheduling.
func BenchmarkAblationScheduler(b *testing.B) {
	benchExperiment(b, experiments.AblationScheduler,
		"p95 cold-read latency, fifo", "p95 cold-read latency, qos-scan")
}

// BenchmarkSustainedIngest: steady-state sustainability sweep (derived).
func BenchmarkSustainedIngest(b *testing.B) {
	benchExperiment(b, experiments.SustainedIngest, "max data drain, 2 drive groups")
}

// --- Substrate micro-benchmarks (host-time performance of the library) ---

// BenchmarkSimSleep is the engine's unit cost: one process, one timed wakeup
// per iteration (a switch into the process and a switch back).
func BenchmarkSimSleep(b *testing.B) {
	env := sim.NewEnv()
	defer env.Close()
	env.Go("ticker", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkSimSleep12Interleaved is the same with a drive group's worth of
// processes taking turns, so every wakeup switches to a different process
// and the event heap is 12 deep.
func BenchmarkSimSleep12Interleaved(b *testing.B) {
	env := sim.NewEnv()
	defer env.Close()
	for d := 0; d < 12; d++ {
		env.Go(fmt.Sprintf("drive-%d", d), func(p *sim.Proc) {
			for i := d; i < b.N; i += 12 {
				p.Sleep(12)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkSimSpawnFinish is a child started with Go: spawn it, wait for
// its Completion, let it finish.
func BenchmarkSimSpawnFinish(b *testing.B) {
	env := sim.NewEnv()
	defer env.Close()
	env.Go("parent", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			c := sim.NewCompletion[struct{}](env)
			env.Go("child", func(cp *sim.Proc) { c.Resolve(struct{}{}, nil) })
			c.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkSimFork5 is one RAID-5 member fan-out's engine cost: a 5-way
// Proc.Fork and join, its record and children reused from the last one.
func BenchmarkSimFork5(b *testing.B) {
	env := sim.NewEnv()
	defer env.Close()
	leg := func(sp *sim.Proc, i int) error { return nil }
	env.Go("parent", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Fork("leg", 5, leg)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkRAID5Write measures host cost of parity-maintaining writes.
func BenchmarkRAID5Write(b *testing.B) {
	env := sim.NewEnv()
	defer env.Close()
	devs := make([]blockdev.Device, 5)
	for i := range devs {
		devs[i] = blockdev.New(env, 1<<30, blockdev.SSDProfile())
	}
	arr, err := raid.New(env, raid.RAID5, devs, 64<<10)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			off := (int64(i) % 512) << 20
			if err := arr.WriteAt(p, buf, off); err != nil {
				b.Error(err)
				return
			}
		}
	})
	env.Run()
}

// bufferArray is the write buffer's shape in a rack stack: RAID-5 over seven
// HDDs with 64 KB stripe units.
func bufferArray(b *testing.B, env *sim.Env) (*raid.Array, []*blockdev.Disk) {
	disks := make([]*blockdev.Disk, 7)
	devs := make([]blockdev.Device, 7)
	for i := range devs {
		disks[i] = blockdev.New(env, 1<<30, blockdev.HDDProfile())
		devs[i] = disks[i]
	}
	arr, err := raid.New(env, raid.RAID5, devs, 64<<10)
	if err != nil {
		b.Fatal(err)
	}
	return arr, disks
}

// reportMemberBytes publishes what the array's members read and wrote per op.
func reportMemberBytes(b *testing.B, disks []*blockdev.Disk) {
	var read, written int64
	for _, d := range disks {
		read += d.BytesRead
		written += d.BytesWritten
	}
	b.ReportMetric(float64(read)/float64(b.N), "member_read_B/op")
	b.ReportMetric(float64(written)/float64(b.N), "member_written_B/op")
}

// BenchmarkRAID5WriteSmall measures the hot case the 1 MB benchmark never
// hits: a 4 KB sub-stripe write on the 7-disk buffer array, a
// read-modify-write of the 4 KB and its parity.
func BenchmarkRAID5WriteSmall(b *testing.B) {
	env := sim.NewEnv()
	defer env.Close()
	arr, disks := bufferArray(b, env)
	buf := make([]byte, 4<<10)
	b.SetBytes(4 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			off := (int64(i)%512)*(6*64<<10) + 8<<10
			if err := arr.WriteAt(p, buf, off); err != nil {
				b.Error(err)
				return
			}
		}
	})
	env.Run()
	reportMemberBytes(b, disks)
}

// BenchmarkBufferedSmallWritesFlushed measures write-back: one op fills a
// bucket-sized region of the page cache over the buffer array with 8 KB
// writes and Syncs it.
func BenchmarkBufferedSmallWritesFlushed(b *testing.B) {
	const bucket = 8 << 20
	env := sim.NewEnv()
	defer env.Close()
	arr, disks := bufferArray(b, env)
	v := pagecache.New(env, arr, pagecache.Ext4Rates())
	reg := obs.New(env)
	v.AttachObs(reg, "buffer")
	buf := make([]byte, 8<<10)
	for i := range buf {
		buf[i] = byte(i*131 + 7) // zeros written to a fresh chunk stay sparse
	}
	b.SetBytes(bucket)
	b.ReportAllocs()
	b.ResetTimer()
	env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			base := int64(i%16) * bucket
			for off := int64(0); off < bucket; off += int64(len(buf)) {
				if err := v.WriteAt(p, buf, base+off); err != nil {
					b.Error(err)
					return
				}
			}
			v.Sync(p)
		}
	})
	env.Run()
	reportMemberBytes(b, disks)
	b.ReportMetric(float64(reg.Counter("buffer.bytes_flushed").Value())/float64(b.N), "flushed_B/op")
}

// BenchmarkUDFWriteFile measures host cost of UDF file creation.
func BenchmarkUDFWriteFile(b *testing.B) {
	env := sim.NewEnv()
	defer env.Close()
	disk := blockdev.New(env, 1<<31, blockdev.SSDProfile())
	data := make([]byte, 64<<10)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	env.Go("writer", func(p *sim.Proc) {
		vol, err := udf.Format(p, disk, [16]byte{1}, "bench")
		if err != nil {
			b.Error(err)
			return
		}
		for i := 0; i < b.N; i++ {
			if err := vol.WriteFile(p, fmt.Sprintf("/d%d/f%d", i%50, i), data); err != nil {
				b.Error(err)
				return
			}
		}
	})
	env.Run()
}

// BenchmarkBurn25GB measures host cost of simulating one full 25 GB burn
// (675 virtual seconds).
func BenchmarkBurn25GB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		dr := optical.NewDrive(env, "d0", nil)
		disc := optical.NewDisc("x", optical.Media25)
		env.Go("t", func(p *sim.Proc) {
			if err := dr.Load(p, disc); err != nil {
				b.Error(err)
				return
			}
			if _, err := dr.Burn(p, nil, optical.BurnOptions{}); err != nil {
				b.Error(err)
			}
		})
		env.Run()
		env.Close()
	}
}

// BenchmarkOLFSWriteSmall measures the full OLFS write path for 4 KB files.
func BenchmarkOLFSWriteSmall(b *testing.B) {
	sys, err := New(Options{BucketBytes: 64 << 20, DisableAutoBurn: true})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	data := make([]byte, 4<<10)
	b.SetBytes(4 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	err = sys.Do(func(p *Proc) error {
		for i := 0; i < b.N; i++ {
			if err := sys.FS.WriteFile(p, fmt.Sprintf("/bench/f%07d", i), data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOLFSReadSmall measures the full OLFS read path for an 8 KB file
// served from the buffer (stat, one read request, close).
func BenchmarkOLFSReadSmall(b *testing.B) {
	sys, err := New(Options{BucketBytes: 64 << 20, DisableAutoBurn: true})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	data := make([]byte, 8<<10)
	b.SetBytes(8 << 10)
	b.ReportAllocs()
	err = sys.Do(func(p *Proc) error {
		if err := sys.FS.WriteFile(p, "/bench/small", data); err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.FS.ReadFile(p, "/bench/small"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
