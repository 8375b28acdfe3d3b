package experiments

import (
	"fmt"
	"time"

	"ros/internal/blockdev"
	"ros/internal/cluster"
	"ros/internal/extfs"
	"ros/internal/fsbench"
	"ros/internal/fuse"
	"ros/internal/olfs"
	"ros/internal/optical"
	"ros/internal/pagecache"
	"ros/internal/plc"
	"ros/internal/rack"
	"ros/internal/raid"
	"ros/internal/sim"
	"ros/internal/udf"
)

// AblationTieredBuffer quantifies §3.3's core design decision: the disk tier
// acknowledges writes in milliseconds, while a bufferless design would hold
// the client until the data is burned (minutes to hours).
func AblationTieredBuffer() (Result, error) {
	res := Result{ID: "ablate-buffer", Title: "Tiered disk buffer vs synchronous burn (§3.3)"}
	bed, err := NewBed(cluster.StackConfig{FS: olfs.Config{
		DataDiscs: 2, ParityDiscs: 1, AutoBurn: false, BurnStagger: 5 * time.Second,
	}})
	if err != nil {
		return res, err
	}
	defer bed.Env.Close()
	fs := bed.FS
	var buffered, synchronous time.Duration
	err = bed.Run(func(p *sim.Proc) error {
		start := p.Now()
		if err := fs.WriteFile(p, "/ab/buffered.dat", pat(1<<20, 1)); err != nil {
			return err
		}
		buffered = p.Now() - start
		// Bufferless: the ack waits for the full burn pipeline.
		start = p.Now()
		if err := fs.WriteFile(p, "/ab/sync.dat", pat(1<<20, 2)); err != nil {
			return err
		}
		if err := burnAll(p, fs); err != nil {
			return err
		}
		synchronous = p.Now() - start
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "buffered write ack", Paper: 0.053, Measured: buffered.Seconds(), Unit: "s (paper's 53ms NAS write as bound)"},
		{Name: "synchronous-burn write ack", Paper: 700, Measured: synchronous.Seconds(), Unit: "s (load+burn critical path)"},
		{Name: "buffering speedup", Paper: 10000, Measured: synchronous.Seconds() / buffered.Seconds(), Unit: "x (order of magnitude)"},
	}
	return res, nil
}

// AblationFuseChunk reproduces §4.8's big_writes motivation: default 4 KB
// FUSE flushes vs the 128 KB big_writes mount option.
func AblationFuseChunk() (Result, error) {
	res := Result{ID: "ablate-fusechunk", Title: "FUSE big_writes (128KB) vs default 4KB flush (§4.8)"}
	measure := func(opts fuse.Options) (float64, error) {
		env := sim.NewEnv()
		defer env.Close()
		disk := blockdev.New(env, 2<<30, blockdev.HDDProfile())
		inner := extfs.New(env, pagecache.New(env, disk, pagecache.Ext4Rates()))
		fs := fuse.Wrap(inner, opts)
		var mbps float64
		var err error
		env.Go("t", func(p *sim.Proc) {
			var r fsbench.Result
			r, err = fsbench.SingleStreamWrite(p, fs, "/f", 128<<20, 1<<20)
			mbps = r.ThroughputMBps()
		})
		env.Run()
		return mbps, err
	}
	big, err := measure(fuse.DefaultOptions())
	if err != nil {
		return res, err
	}
	small, err := measure(fuse.SmallWriteOptions())
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "write throughput, big_writes", Paper: 482, Measured: big, Unit: "MB/s"},
		{Name: "write throughput, 4KB flushes", Paper: 100, Measured: small, Unit: "MB/s (paper: 'frequent switches and significant overheads')"},
		{Name: "big_writes speedup", Paper: 4.8, Measured: big / small, Unit: "x"},
	}
	return res, nil
}

// AblationReadDuringBurn is §4.8's read that arrives while every drive
// group is burning: waiting out the burn against interrupting it and
// resuming in append mode. The first three lines are one read, 30 s after
// the discs of a 2+1 array with a 5 s stagger start. The sweep lines move
// the read's arrival across a whole burn (parity, blank-tray load, start
// stagger, burn) at the default stagger, on 1 and 2 groups at 2+1 and 11+1.
func AblationReadDuringBurn() (Result, error) {
	res := Result{ID: "ablate-readpolicy", Title: "All-drives-burning read: wait vs interrupt-and-append (§4.8)"}
	c := burnRead{groups: 1, data: 2, stagger: 5 * time.Second}
	life, err := readDuringBurn(c, -1)
	if err != nil {
		return res, err
	}
	intr, err := readDuringBurn(c, life.burning+30*time.Second)
	if err != nil {
		return res, err
	}
	c.wait = true
	wait, err := readDuringBurn(c, life.burning+30*time.Second)
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "read latency, wait policy", Paper: 800, Measured: seconds(wait.read), Unit: "s (residual burn + swap; paper: 'minutes to more than an hour')"},
		{Name: "read latency, interrupt policy", Paper: 160, Measured: seconds(intr.read), Unit: "s (unload + load + read)"},
		{Name: "interrupted burns resumed in append mode", Paper: 1, Measured: float64(intr.resumes), Unit: ""},
	}
	for _, c := range []burnRead{{groups: 1, data: 2}, {groups: 2, data: 2}, {groups: 1, data: 11}, {groups: 2, data: 11}} {
		ms, err := sweepReadDuringBurn(c)
		if err != nil {
			return res, err
		}
		res.Metrics = append(res.Metrics, ms...)
	}
	return res, nil
}

// burnRead is a read-during-burn bed: groups drive groups, each burning a
// fresh data+1 array while a read of an earlier array arrives.
type burnRead struct {
	groups, data int
	stagger      time.Duration // between disc starts; 0 is olfs's default
	wait         bool          // no §4.8 interrupt: the read waits out the burn
}

// burnReadTrial is one trial's outcome; burning and burnEnd count from
// FlushAndBurn.
type burnReadTrial struct {
	read    time.Duration // the read's latency
	burning time.Duration // every group burning, polled each second
	burnEnd time.Duration // every burn finished
	resumes int64         // olfs.burn_resumes
}

// sweepPoints is how many read arrivals a sweep spreads over one burn.
const sweepPoints = 12

// sweepReadDuringBurn spreads the read's arrival evenly from FlushAndBurn to
// the end of c's burn without a read. It reports the worst and mean read,
// waiting and interrupting, and how much each interrupt delays the burn.
func sweepReadDuringBurn(c burnRead) ([]Metric, error) {
	life, err := readDuringBurn(c, -1)
	if err != nil {
		return nil, err
	}
	var worst, sum [2]time.Duration // waiting, interrupting
	var delay time.Duration
	var interrupts int64
	for i := 0; i < sweepPoints; i++ {
		for k, wait := range []bool{true, false} {
			c.wait = wait
			tr, err := readDuringBurn(c, life.burnEnd*time.Duration(i)/sweepPoints)
			if err != nil {
				return nil, err
			}
			worst[k], sum[k] = max(worst[k], tr.read), sum[k]+tr.read
			if tr.resumes > 0 {
				delay, interrupts = delay+tr.burnEnd-life.burnEnd, interrupts+tr.resumes
			}
		}
	}
	name := fmt.Sprintf("%d group(s), %d+1: ", c.groups, c.data)
	return []Metric{
		{Name: name + "worst read, wait", Measured: seconds(worst[0]), Unit: "s"},
		{Name: name + "mean read, wait", Measured: seconds(sum[0] / sweepPoints), Unit: "s"},
		{Name: name + "worst read, interrupt", Measured: seconds(worst[1]), Unit: "s"},
		{Name: name + "mean read, interrupt", Measured: seconds(sum[1] / sweepPoints), Unit: "s"},
		{Name: name + "burn delay per interrupt", Measured: seconds(delay) / float64(max(interrupts, 1)), Unit: "s"},
	}, nil
}

// readDuringBurn burns an array holding /rp/cold.dat, fills one more array
// per group and burns them all, and reads /rp/cold.dat at after
// FlushAndBurn; a negative at reads nothing.
func readDuringBurn(c burnRead, at time.Duration) (burnReadTrial, error) {
	var tr burnReadTrial
	bed, err := NewBed(cluster.StackConfig{DriveGroups: c.groups, FS: olfs.Config{
		DataDiscs: c.data, ParityDiscs: 1, AutoBurn: false,
		RecycleAfterBurn: true, BurnStagger: c.stagger,
	}})
	if err != nil {
		return tr, err
	}
	defer bed.Env.Close()
	fs := bed.FS
	if c.wait {
		fs.Sched().SetStarvedHook(nil)
	}
	err = bed.Run(func(p *sim.Proc) error {
		if err := fs.WriteFile(p, "/rp/cold.dat", pat(256<<10, 1)); err != nil {
			return err
		}
		if err := burnAll(p, fs); err != nil {
			return err
		}
		for i := 0; i < c.groups*c.data; i++ {
			if err := writeImage(p, fs, fmt.Sprintf("/rp/next%d.dat", i), pat(256<<10, byte(i+2))); err != nil {
				return err
			}
		}
		t0 := p.Now()
		burns, err := fs.FlushAndBurn(p)
		if err != nil {
			return err
		}
		ended := false
		return p.Fork("rp", 3, func(fp *sim.Proc, k int) error {
			switch {
			case k == 0:
				_, err := burns.Wait(fp)
				tr.burnEnd, ended = fp.Now()-t0, true
				return err
			case k == 1:
				for !ended && !allGroupsBurning(fs.Library()) {
					fp.Sleep(time.Second)
				}
				tr.burning = fp.Now() - t0
			case at >= 0:
				fp.Sleep(at)
				_, err := fs.ReadFile(fp, "/rp/cold.dat")
				tr.read = fp.Now() - t0 - at
				return err
			}
			return nil
		})
	})
	tr.resumes = fs.Obs().Counter("olfs.burn_resumes").Value()
	return tr, err
}

// AblationForepart measures §4.8's forepart-data-stored mechanism: time to
// first byte on a roller miss with and without the 256 KB forepart in MV.
func AblationForepart() (Result, error) {
	res := Result{ID: "ablate-forepart", Title: "Forepart-in-MV first-byte latency (§4.8)"}
	with, err := readAfterUnload(olfs.Config{RecycleAfterBurn: true, Forepart: true}, "/fp/f.dat", pat(512<<10, 3), true)
	if err != nil {
		return res, err
	}
	without, err := readAfterUnload(olfs.Config{RecycleAfterBurn: true}, "/fp/f.dat", pat(512<<10, 3), true)
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "first byte with forepart", Paper: 0.002, Measured: with, Unit: "s (paper: 'within 2 ms')"},
		{Name: "first byte without forepart", Paper: 70.5, Measured: without, Unit: "s (mechanical fetch)"},
	}
	return res, nil
}

// AblationReadCache quantifies the RC design (§4.1): keeping burned images
// resident in the buffer turns re-reads into millisecond buffer hits instead
// of mechanical fetches. RC has two halves, retention after a burn and a fill
// on fetch; the ablation switches the first off, and the fetch it then pays
// is the one that fills the cache for every later read of the image.
func AblationReadCache() (Result, error) {
	res := Result{
		ID:    "ablate-readcache",
		Title: "Read cache of burned images (§4.1)",
		Notes: "without RC the first re-read fetches the tray; that read copies the image back into the buffer, so later re-reads are buffer hits again",
	}
	cached, err := readAfterUnload(olfs.Config{}, "/rc/f.dat", pat(256<<10, 4), false)
	if err != nil {
		return res, err
	}
	evicted, err := readAfterUnload(olfs.Config{RecycleAfterBurn: true}, "/rc/f.dat", pat(256<<10, 4), false)
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "re-read with RC (buffer hit)", Paper: 0.002, Measured: cached, Unit: "s"},
		{Name: "re-read without RC (mechanical fetch)", Paper: 70.5, Measured: evicted, Unit: "s"},
	}
	return res, nil
}

// readAfterUnload times a read of path, written with data on a 2+1 bed
// with cfg's switches and burned, once its array is back in its tray: the
// whole file, or only its first byte.
func readAfterUnload(cfg olfs.Config, path string, data []byte, firstByte bool) (float64, error) {
	cfg.DataDiscs, cfg.ParityDiscs, cfg.BurnStagger = 2, 1, 5*time.Second
	bed, err := NewBed(cluster.StackConfig{FS: cfg})
	if err != nil {
		return 0, err
	}
	defer bed.Env.Close()
	fs := bed.FS
	var lat float64
	err = bed.Run(func(p *sim.Proc) error {
		if err := fs.WriteFile(p, path, data); err != nil {
			return err
		}
		if err := burnAll(p, fs); err != nil {
			return err
		}
		if err := fs.UnloadIdle(p); err != nil {
			return err
		}
		start := p.Now()
		var err error
		if firstByte {
			_, err = fs.ReadFirstByte(p, path)
		} else {
			_, err = fs.ReadFile(p, path)
		}
		lat = (p.Now() - start).Seconds()
		return err
	})
	return lat, err
}

// AblationUniquePath measures §4.4's trade-off: embedding the full ancestor
// directory chain in every image costs some image space but keeps every disc
// self-descriptive.
func AblationUniquePath() (Result, error) {
	res := Result{ID: "ablate-uniquepath", Title: "Unique file path directory redundancy (§4.4)"}
	env := sim.NewEnv()
	defer env.Close()
	store1 := blockdev.New(env, 64<<20, blockdev.SSDProfile())
	store2 := blockdev.New(env, 64<<20, blockdev.SSDProfile())
	var deepUsed, flatUsed int64
	var err error
	env.Go("t", func(p *sim.Proc) {
		deep, e := udf.Format(p, store1, [16]byte{1}, "deep")
		if e != nil {
			err = e
			return
		}
		flat, e := udf.Format(p, store2, [16]byte{2}, "flat")
		if e != nil {
			err = e
			return
		}
		for i := 0; i < 100; i++ {
			data := pat(4096, byte(i))
			if e := deep.WriteFile(p, fmt.Sprintf("/archive/project-%d/year/month/file%03d.dat", i%10, i), data); e != nil {
				err = e
				return
			}
			if e := flat.WriteFile(p, fmt.Sprintf("/f%03d.dat", i), data); e != nil {
				err = e
				return
			}
		}
		deepUsed, flatUsed = deep.UsedBytes(), flat.UsedBytes()
	})
	env.Run()
	if err != nil {
		return res, err
	}
	overhead := float64(deepUsed-flatUsed) / float64(flatUsed) * 100
	res.Metrics = []Metric{
		{Name: "image bytes, unique-path directories", Paper: 0, Measured: float64(deepUsed) / 1024, Unit: "KB"},
		{Name: "image bytes, flat namespace", Paper: 0, Measured: float64(flatUsed) / 1024, Unit: "KB"},
		{Name: "directory redundancy overhead", Paper: 10, Measured: overhead, Unit: "% (paper: 'slightly increases directory data')"},
	}
	res.Notes = "in exchange every disc is independently recoverable (the RecoverNamespace path)"
	return res, nil
}

// AblationOverlapScheduling measures §3.2's roller/arm parallel scheduling:
// overlapping rotation and fan-out with the collect phase shortens unload.
func AblationOverlapScheduling() (Result, error) {
	res := Result{ID: "ablate-overlap", Title: "Parallel roller/arm scheduling (§3.2)"}
	measure := func(overlap bool) (float64, error) {
		env := sim.NewEnv()
		defer env.Close()
		lib, err := rack.New(env, rack.Config{
			Rollers: 1, DriveGroups: 1, Media: optical.Media25, Overlap: overlap,
		})
		if err != nil {
			return 0, err
		}
		var unload float64
		env.Go("t", func(p *sim.Proc) {
			id := rack.TrayID{Roller: 0, Layer: 40, Slot: 3}
			if err = lib.LoadArray(p, id, 0); err != nil {
				return
			}
			if _, err = lib.Rollers[0].Ctl.Exec(p, plc.Command{Op: plc.OpRotate, Args: []int{0}}); err != nil {
				return
			}
			start := p.Now()
			if err = lib.UnloadArray(p, 0, nil); err != nil {
				return
			}
			unload = (p.Now() - start).Seconds()
		})
		env.Run()
		return unload, err
	}
	serial, err := measure(false)
	if err != nil {
		return res, err
	}
	overlapped, err := measure(true)
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "unload, serial scheduling", Paper: 84, Measured: serial, Unit: "s"},
		{Name: "unload, overlapped scheduling", Paper: 81, Measured: overlapped, Unit: "s"},
		{Name: "saving", Paper: 3, Measured: serial - overlapped, Unit: "s (paper: 'save up to almost 10 seconds' across the full convey)"},
	}
	return res, nil
}

// AblationStreamIsolation demonstrates §4.7's four-concurrent-streams
// concern: a second independent RAID volume isolates burn-read traffic from
// foreground writes.
func AblationStreamIsolation() (Result, error) {
	res := Result{ID: "ablate-streams", Title: "Multiple independent RAID volumes for concurrent streams (§4.7)"}
	// Shared: writer and a parity-style reader on one array. Isolated: each
	// has its own array.
	measure := func(isolated bool) (float64, error) {
		env := sim.NewEnv()
		defer env.Close()
		mk := func() *pagecache.Volume {
			hdds := make([]blockdev.Device, 7)
			for i := range hdds {
				hdds[i] = blockdev.New(env, 1<<30, blockdev.HDDProfile())
			}
			arr, err := raid.New(env, raid.RAID5, hdds, 64<<10)
			if err != nil {
				panic(err)
			}
			return pagecache.New(env, arr, pagecache.Ext4Rates())
		}
		volA := mk()
		volB := volA
		if isolated {
			volB = mk()
		}
		// Seed volB's backing store region that the reader will scan.
		var writerSec float64
		done := sim.NewCompletion[struct{}](env)
		env.Go("reader", func(p *sim.Proc) {
			// Parity-maker style stream: large sequential backend reads.
			buf := make([]byte, 1<<20)
			limit := volB.Backend().Size() - int64(len(buf))
			for off := int64(0); off < 256<<20; off += int64(len(buf)) {
				if err := volB.Backend().ReadAt(p, buf, off%limit); err != nil {
					break
				}
			}
			done.Resolve(struct{}{}, nil)
		})
		env.Go("writer", func(p *sim.Proc) {
			start := p.Now()
			buf := pat(1<<20, 9)
			for off := int64(0); off < 128<<20; off += int64(len(buf)) {
				if err := volA.WriteAt(p, buf, off); err != nil {
					break
				}
			}
			volA.Sync(p)
			writerSec = (p.Now() - start).Seconds()
		})
		env.Run()
		return writerSec, nil
	}
	shared, err := measure(false)
	if err != nil {
		return res, err
	}
	isolated, err := measure(true)
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "write+sync time, shared volume", Paper: 0, Measured: shared, Unit: "s"},
		{Name: "write+sync time, isolated volumes", Paper: 0, Measured: isolated, Unit: "s"},
		{Name: "interference slowdown", Paper: 1.5, Measured: shared / isolated, Unit: "x (shape: shared > isolated)"},
	}
	return res, nil
}

// Ablations runs all ablation experiments.
func Ablations() ([]Result, error) {
	return runAll(
		AblationTieredBuffer, AblationFuseChunk, AblationReadDuringBurn,
		AblationForepart, AblationReadCache, AblationUniquePath,
		AblationOverlapScheduling, AblationStreamIsolation,
		AblationDirectWrite, AblationScheduler, AblationParallelRead,
	)
}
